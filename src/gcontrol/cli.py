"""Command-line front end: run a config, validate it, or list the models."""

from __future__ import annotations

import argparse
import sys

from .experiments import InvalidConfig, load_config, run_document, validate_document
from .models import MODEL_BUILDERS, MODEL_PARAM_DOCS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcontrol",
        description="Desk-scale experiments for controlled jump-diffusions"
                    " under volatility ambiguity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="validate and execute one experiment config")
    p_run.add_argument("config", help="path to a JSON config document")
    p_run.add_argument("--output-dir", default=None,
                       help="write artifacts here instead of the config's output_dir")
    p_run.add_argument("--threads", type=int, default=1,
                       help="threads for independent sub-evaluations, in total (default 1)")
    p_run.add_argument("--seed-override", type=int, default=None,
                       help="replace the config's seed for this run")

    p_val = sub.add_parser("validate",
                           help="check a config and list every violation")
    p_val.add_argument("config", help="path to a JSON config document")

    sub.add_parser("list-models", help="print the model registry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-models":
        for name in sorted(MODEL_BUILDERS):
            print(f"{name}: {MODEL_PARAM_DOCS.get(name, '')}")
        return 0

    try:
        doc = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        violations = validate_document(doc)
        for line in violations:
            print(line)
        if violations:
            print(f"{len(violations)} violation(s)", file=sys.stderr)
            return 1
        print("configuration is valid")
        return 0

    # run_document plans the document once, with the overrides applied, and
    # refuses it with the lines validate prints
    try:
        result = run_document(doc, output_dir=args.output_dir,
                              threads=args.threads,
                              seed_override=args.seed_override)
    except InvalidConfig as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return 1
    except Exception as exc:  # module errors surface verbatim as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.manifest.files) + 1} files to {result.output_dir}")
    print(f"verdict: {result.verdict}")
    return 2 if result.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
