"""Run one phonassess command in a fresh process, optionally traced.

Usage: python3 perfbench/child.py [--spans FILE --run-id N] -- <phonassess args>

With ``--spans`` every function in ``perfbench.tracing.FUNCTIONS`` is
wrapped before the command starts, and the spans are written to FILE as
JSON when it ends. The exit code is the command's.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from phonassess import cli

    if not args.spans:
        return cli.main(command)
    from perfbench.tracing import Tracer, install

    tracer = Tracer(args.run_id)
    install(tracer)
    try:
        return cli.main(command)
    finally:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
