"""Linter entry point: run the rule families and report.

Library use::

    from repro.devtools.lint import run_lint
    findings = run_lint(Path("src"))

Command line::

    python -m repro.devtools.lint --root src --format text
    python -m repro.devtools.lint --format json
    python -m repro.devtools.lint --format sarif > lint.sarif
    python -m repro.devtools.lint --baseline devtools/baseline.json
    python -m repro.devtools.lint --baseline devtools/baseline.json \
        --update-baseline

Exit status is 0 when the tree is clean (or every finding is absorbed
by the baseline), 1 when any new finding fires (or, with
``--check-baseline``, when the baseline holds stale entries), and 2 on
usage or parse errors — so it slots directly into CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.config import LintConfig
from repro.devtools.determinism import check_determinism
from repro.devtools.findings import RULE_REGISTRY, Finding
from repro.devtools.imports import check_imports
from repro.devtools.layering import check_layering
from repro.devtools.modules import discover_modules
from repro.devtools.numeric import check_numeric
from repro.devtools.shard_purity import check_shard_purity
from repro.devtools.suppressions import (
    apply_suppressions,
    check_suppressions,
)

__all__ = ["RULE_FAMILIES", "run_lint", "main"]

#: Selectable rule families, as accepted by ``--rules``.
RULE_FAMILIES = (
    "imports",
    "layering",
    "determinism",
    "shard-purity",
    "numeric",
    "suppressions",
)


def _normalise_severity(findings: List[Finding]) -> List[Finding]:
    """Stamp each finding with its registered severity."""
    normalised = []
    for finding in findings:
        rule = RULE_REGISTRY.get(finding.rule)
        if rule is not None and rule.severity != finding.severity:
            finding = dataclasses.replace(finding, severity=rule.severity)
        normalised.append(finding)
    return normalised


def run_lint(
    root: Path,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the selected rule families over the tree under ``root``.

    Inline ``# repro: noqa[rule-id]`` suppressions are honoured by
    every family; the ``suppressions`` family then reports unjustified
    comments (always) and stale ones (only when every family ran, since
    a partial run cannot tell stale from out-of-scope).

    Args:
        root: source root (the directory containing top-level packages).
        config: rule configuration; defaults to this repo's architecture.
        rules: subset of :data:`RULE_FAMILIES`; defaults to all.

    Raises:
        ValueError: unknown rule family name, or ``root`` is not a
            directory.
    """
    if not root.is_dir():
        raise ValueError(f"lint root {root} is not a directory")
    selected = tuple(rules) if rules is not None else RULE_FAMILIES
    unknown = set(selected) - set(RULE_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown rule families {sorted(unknown)}; known: {RULE_FAMILIES}"
        )
    config = config or LintConfig()
    modules = discover_modules(root)
    findings: List[Finding] = []
    if "imports" in selected:
        findings.extend(check_imports(modules))
    if "layering" in selected:
        findings.extend(check_layering(modules, config))
    if "determinism" in selected:
        findings.extend(check_determinism(modules, config))
    if "shard-purity" in selected:
        findings.extend(check_shard_purity(modules, config))
    if "numeric" in selected:
        findings.extend(check_numeric(modules, config))
    kept, suppressed = apply_suppressions(findings, modules)
    if "suppressions" in selected:
        all_others_ran = set(RULE_FAMILIES) - {"suppressions"} <= set(selected)
        kept.extend(
            check_suppressions(
                modules, suppressed, check_unused=all_others_ran
            )
        )
    return sorted(_normalise_severity(kept))


def _render_text(findings: List[Finding]) -> str:
    lines = [str(finding) for finding in findings]
    lines.append(
        f"{len(findings)} finding(s)" if findings else "clean: 0 findings"
    )
    return "\n".join(lines)


def _render_json(findings: List[Finding]) -> str:
    return json.dumps(
        {
            "count": len(findings),
            "findings": [finding.to_dict() for finding in findings],
        },
        indent=2,
    )


def _sarif_uri(path: str) -> str:
    return Path(path).as_posix()


def _render_sarif(findings: List[Finding]) -> str:
    """SARIF 2.1.0 document for CI upload (GitHub code scanning)."""
    # Always publish full rule metadata; results index into it by id.
    registered = [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]
    rule_index = {rule.id: i for i, rule in enumerate(registered)}
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-devtools-lint",
                        "informationUri": (
                            "https://example.invalid/repro/devtools"
                        ),
                        "rules": [
                            {
                                "id": rule.id,
                                "shortDescription": {"text": rule.summary},
                                "properties": {"family": rule.family},
                                "defaultConfiguration": {
                                    "level": rule.severity
                                },
                            }
                            for rule in registered
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "ruleIndex": rule_index.get(finding.rule, -1),
                        "level": finding.severity,
                        "message": {"text": finding.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": _sarif_uri(finding.path)
                                    },
                                    "region": {
                                        "startLine": max(1, finding.line)
                                    },
                                }
                            }
                        ],
                    }
                    for finding in findings
                ],
            }
        ],
    }
    return json.dumps(document, indent=2)


_RENDERERS = {
    "text": _render_text,
    "json": _render_json,
    "sarif": _render_sarif,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "AST-level import, layering, determinism, shard-purity and "
            "numeric-determinism linter."
        ),
    )
    parser.add_argument(
        "--root",
        default="src",
        type=Path,
        help="source root to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule families to run "
        f"(default: all of {','.join(RULE_FAMILIES)})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="ratcheting baseline file: findings recorded there do not "
        "fail the run, new ones do",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings "
        "(the only way entries enter or leave the baseline)",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail when the baseline holds stale entries for findings "
        "that no longer exist (CI self-check)",
    )
    args = parser.parse_args(argv)
    if (args.update_baseline or args.check_baseline) and args.baseline is None:
        print(
            "lint error: --update-baseline/--check-baseline require "
            "--baseline PATH",
            file=sys.stderr,
        )
        return 2
    rules = args.rules.split(",") if args.rules else None
    try:
        findings = run_lint(args.root, rules=rules)
    except (ValueError, SyntaxError) as error:
        print(f"lint error: {error}", file=sys.stderr)
        return 2

    if args.update_baseline:
        count = write_baseline(args.baseline, findings)
        print(f"baseline {args.baseline}: {count} entr{'y' if count == 1 else 'ies'}")
        return 0

    stale_failure = False
    if args.baseline is not None:
        try:
            entries = load_baseline(args.baseline)
        except ValueError as error:
            print(f"lint error: {error}", file=sys.stderr)
            return 2
        new, known, stale = apply_baseline(findings, entries)
        findings = new
        if known:
            print(
                f"baseline: {len(known)} known finding(s) suppressed",
                file=sys.stderr,
            )
        if stale:
            for path, rule, message in stale:
                print(
                    f"stale baseline entry: {path}: [{rule}] {message}",
                    file=sys.stderr,
                )
            print(
                f"baseline: {len(stale)} stale entr"
                f"{'y' if len(stale) == 1 else 'ies'} — run "
                "--update-baseline to ratchet down",
                file=sys.stderr,
            )
            stale_failure = args.check_baseline

    print(_RENDERERS[args.format](findings))
    return 1 if (findings or stale_failure) else 0


if __name__ == "__main__":
    sys.exit(main())
