"""``repro-trace``: generate, convert, and inspect trace files.

Usage::

    repro-trace generate --out wl.din.gz --segments 2 --refs 50000
    repro-trace convert wl.din wl.din.gz
    repro-trace stats wl.din.gz --block 32
    repro-trace head wl.din.gz -n 10

Traces are dinero text files: ``.din``, or ``.din.gz`` for gzip. Any
other extension is rejected.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError, console_script
from repro.trace.dinero import read_din, write_din
from repro.trace.reference import Reference
from repro.trace.stats import summarize_trace
from repro.trace.synthetic import AtumWorkload


def _check_din(path: Path) -> Path:
    if not path.name.endswith((".din", ".din.gz")):
        raise ConfigurationError(
            f"unknown trace format for {path.name!r}; use .din or .din.gz"
        )
    return path


def _reader(path: Path) -> Iterator[Reference]:
    return read_din(_check_din(path))


def _writer(trace: Iterable[Reference], path: Path) -> int:
    return write_din(trace, _check_din(path))


def _cmd_generate(args) -> int:
    workload = AtumWorkload(
        segments=args.segments,
        references_per_segment=args.refs,
        seed=args.seed,
    )
    written = _writer(iter(workload), Path(args.out))
    print(f"wrote {written} records to {args.out}")
    return 0


def _same_file(first: Path, second: Path) -> bool:
    """Whether two paths name one file, however spelled or linked."""
    if first.resolve() == second.resolve():
        return True
    try:
        return first.samefile(second)
    except OSError:
        return False


def _cmd_convert(args) -> int:
    source, dest = Path(args.source), Path(args.dest)
    # The reader is lazy and the writer truncates its file first, so
    # converting a trace onto itself would empty it.
    if _same_file(source, dest):
        raise ConfigurationError(
            f"convert destination {args.dest!r} is the source trace; "
            "write to another path"
        )
    written = _writer(_reader(source), dest)
    print(f"converted {args.source} -> {args.dest} ({written} records)")
    return 0


def _cmd_stats(args) -> int:
    stats = summarize_trace(
        _reader(Path(args.source)), block_size=args.block, limit=args.limit
    )
    print(f"references           : {stats.references}")
    print(f"flushes              : {stats.flushes}")
    print(f"instruction fraction : {stats.instruction_fraction:.3f}")
    print(f"store fraction (data): {stats.store_fraction:.3f}")
    print(f"unique {args.block}B blocks    : {stats.unique_blocks}")
    return 0


def _cmd_head(args) -> int:
    for index, ref in enumerate(_reader(Path(args.source))):
        if index >= args.count:
            break
        if ref.is_flush:
            print("flush")
        else:
            print(f"{ref.kind.value:<7} {ref.address:#012x}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch to the requested subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate, convert, and inspect trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic workload")
    generate.add_argument("--out", required=True)
    generate.add_argument("--segments", type=int, default=2)
    generate.add_argument("--refs", type=int, default=50_000,
                          help="references per segment")
    generate.add_argument("--seed", type=int, default=1989)
    generate.set_defaults(fn=_cmd_generate)

    convert = sub.add_parser("convert", help="convert between formats")
    convert.add_argument("source")
    convert.add_argument("dest")
    convert.set_defaults(fn=_cmd_convert)

    stats = sub.add_parser("stats", help="summarize a trace")
    stats.add_argument("source")
    stats.add_argument("--block", type=int, default=16)
    stats.add_argument("--limit", type=int, default=None)
    stats.set_defaults(fn=_cmd_stats)

    head = sub.add_parser("head", help="print the first records")
    head.add_argument("source")
    head.add_argument("-n", "--count", type=int, default=20)
    head.set_defaults(fn=_cmd_head)

    args = parser.parse_args(argv)
    return args.fn(args)


run = console_script(main)

if __name__ == "__main__":
    run()
