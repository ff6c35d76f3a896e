"""``ion-lint`` — project-invariant checker for the ION codebase.

Examples::

    ion-lint src/                                   # lint, no baseline
    ion-lint src/ --baseline ion-lint.baseline.json # CI invocation
    ion-lint src/ --baseline ion-lint.baseline.json --write-baseline
    ion-lint src/ --format json

Exit status is 0 when no violations are *new* relative to the
baseline (an absent baseline exempts nothing), 1 otherwise.  Both
output formats are fully sorted by (path, line, col, rule) so golden
tests and CI diffs are stable across runs and machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.sca.baseline import (
    BaselineDiff,
    compare,
    load_baseline,
    render_baseline,
    violation_key,
)
from repro.sca.lint import lint_paths
from repro.sca.violations import Violation
from repro.util.console import suppress_broken_pipe


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion-lint",
        description="Enforce ION project invariants (registered span/metric "
        "names, sanctioned file I/O, no mutable defaults, no silent excepts, "
        "no raw ast.parse).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="directory violation paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline JSON file of intentional exemptions",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current violations to --baseline and exit 0",
    )
    return parser


def _render_text(diff: BaselineDiff, stream) -> None:
    new_keys = {violation_key(v) for v in diff.new}
    for violation in sorted(diff.new + diff.exempted, key=Violation.sort_key):
        marker = "NEW  " if violation_key(violation) in new_keys else "     "
        print(f"{marker}{violation.render()}", file=stream)
        if violation.hint and violation_key(violation) in new_keys:
            print(f"           hint: {violation.hint}", file=stream)
    total = len(diff.new) + len(diff.exempted)
    print(
        f"ion-lint: {total} violation(s); {len(diff.new)} new, "
        f"{len(diff.exempted)} exempted by baseline",
        file=stream,
    )
    for key, slack in diff.stale.items():
        print(f"ion-lint: stale baseline entry {key} ({slack} unused)", file=stream)


def _render_json(diff: BaselineDiff, stream) -> None:
    new_keys = {violation_key(v) for v in diff.new}
    payload = {
        "summary": {
            "exempted": len(diff.exempted),
            "new": len(diff.new),
            "stale_baseline": dict(sorted(diff.stale.items())),
            "total": len(diff.new) + len(diff.exempted),
        },
        "violations": [
            {
                "col": violation.col,
                "hint": violation.hint,
                "line": violation.line,
                "message": violation.message,
                "new": violation_key(violation) in new_keys,
                "path": violation.path,
                "rule": violation.rule,
                "severity": violation.severity.value,
            }
            for violation in sorted(diff.new + diff.exempted, key=Violation.sort_key)
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    print(file=stream)


@suppress_broken_pipe
def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root)
    violations = lint_paths([Path(p) for p in args.paths], root)

    if args.write_baseline:
        if not args.baseline:
            print("ion-lint: --write-baseline requires --baseline", file=sys.stderr)
            return 2
        Path(args.baseline).write_text(render_baseline(violations), encoding="utf-8")
        print(f"ion-lint: wrote baseline for {len(violations)} violation(s) to {args.baseline}")
        return 0

    baseline = load_baseline(Path(args.baseline)) if args.baseline else {}
    diff = compare(violations, baseline)
    if args.format == "json":
        _render_json(diff, sys.stdout)
    else:
        _render_text(diff, sys.stdout)
    return 0 if diff.clean else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
