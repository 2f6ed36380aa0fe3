"""Command-line surface.

Subcommands: comajors (run the block-period construction), check
(certify a symmetric pair), orbit (angle dynamics), pullback (finite
pullback family of a legal pair), render (chords JSON to SVG).

Exit codes: 0 success, 1 verification or legality failure, 2 usage or
file error.  A failed contract (construction, certification, seed
legality, pullback invariant) is reported by `main` alone: its message
on stderr, then its witness, when it has one, as one JSON line; `check`
prints its verdict and witness on stdout.  A reader that closes standard
output early ends the document quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Optional, Sequence

from .angles import angle_str, orbit_info, parse_angle, tripling
from .builder import BuildError, VerificationError, build
from .chords import Chord, image
from .formats import chords_from_json, prelamination_chunks, rows_chunks
from .legality import is_legal_pair
from .orbits import classify_periodic
from .pullback import IllegalSeedError, InvariantError, build_prelamination, hyperbolic_prune
from .render import RenderConfig, render_svg


def _write(chunks: Iterable[bytes], out: Optional[str]) -> None:
    """Write a document's byte chunks as they are made, to the file `out` or standard output."""
    if out is None or out == "-":
        try:
            sys.stdout.flush()  # text printed before stays before
            sys.stdout.buffer.writelines(chunks)
            sys.stdout.buffer.flush()
        except BrokenPipeError:  # the reader has what it wanted; the exit flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks)


# the failed contracts `main` reports with exit 1, by the prefix of their message
_FAILURES = {BuildError: "build failure", VerificationError: "verification failure",
             IllegalSeedError: "illegal seed", InvariantError: "invariant failure"}


def _render_cfg(args) -> RenderConfig:
    return RenderConfig(size_px=args.size, geodesic_style=args.style, color_by=args.color_by)


def _svg(pairs, args, **kw) -> list[bytes]:
    """The SVG document as one chunk, drawn by `render_svg` with the flags `main` checked
    (`args.render`; the benchmark's output checks patch `cli.render_svg`)."""
    return [render_svg(pairs, args.render, **kw).encode()]


def cmd_comajors(args) -> int:
    state = build(args.max_block, verify=args.verify)
    order = state.order()
    if args.type != "both":
        order = order[state.ptypes[order] == args.type]
    pairs, types, blocks = state.pairs.take(order, 0), state.ptypes[order], state.blocks[order]
    if args.format == "svg":
        chunks = _svg(pairs, args, classes=types, blocks=blocks, modulus=state.scale)
    else:
        chunks = rows_chunks(args.format, pairs, state.scale, types, blocks)
    _write(chunks, args.out)
    return 0


def cmd_check(args) -> int:
    c = Chord(parse_angle(args.a), parse_angle(args.b))
    verdict = is_legal_pair(c)
    print(f"pair {{{c}, -{c}}}: {verdict.status.upper()}")
    if not verdict.is_legal:
        print(json.dumps(verdict.to_json()["witness"]))
        return 1
    if c.degenerate:
        info = orbit_info(c.a)
        print(f"degenerate pair; preperiod {info.preperiod}, period {info.period}")
        return 0
    infos = [orbit_info(v) for v in c.endpoints()]
    for v, info in zip(c.endpoints(), infos):
        print(f"endpoint {angle_str(v)}: preperiod {info.preperiod}, period {info.period}")
    if all(i.preperiod == 1 for i in infos):
        pc = classify_periodic(tripling(c.a))
        print(f"co-periodic comajor: type {pc.ptype}, block period {pc.block_period},"
              f" minor {image(c)}")
    return 0


def cmd_orbit(args) -> int:
    if args.max_steps < 1:
        raise ValueError(f"--max-steps must be >= 1, got {args.max_steps}")
    x = parse_angle(args.x)
    info = orbit_info(x)
    print(f"angle {angle_str(x)}: preperiod {info.preperiod}, period {info.period}")
    pts = []
    cur = x
    for _ in range(min(info.preperiod + info.period, args.max_steps)):
        pts.append(angle_str(cur))
        cur = tripling(cur)
    print("orbit: " + " -> ".join(pts) + " -> ...")
    tail = x * 3**info.preperiod % 1
    pc = classify_periodic(tail)
    print(f"periodic tail at {angle_str(tail)}: type {pc.ptype}, "
          f"block period {pc.block_period}, point period {pc.point_period}")
    return 0


def cmd_pullback(args) -> int:
    c = Chord(parse_angle(args.a), parse_angle(args.b))
    pre = (hyperbolic_prune if args.prune else build_prelamination)(c, args.depth)
    if args.format == "svg":
        _write(_svg(pre.pairs, args, modulus=pre.modulus), args.out)
    else:
        _write(prelamination_chunks(pre.seed, pre.depth, pre.pairs, pre.modulus), args.out)
    return 0


def cmd_render(args) -> int:
    if args.infile is None or args.infile == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.infile, "rb") as fh:
            data = fh.read()
    pairs, n, classes, blocks = chords_from_json(data)
    _write(_svg(pairs, args, classes=classes, blocks=blocks, modulus=n), args.out)
    return 0


def _add_render_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, default=800, help="SVG size in pixels")
    p.add_argument("--style", choices=["straight", "arc"], default="arc",
                   help="chord rendering style (default: hyperbolic arc)")
    p.add_argument("--color-by", choices=["type", "block"], default="type", dest="color_by")


@functools.cache  # built once per process; commands look their helpers up when they run
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trilam",
                                 description="Exact comajor laminations of the tripling map")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("comajors", help="build all co-periodic comajors up to a block period")
    p.add_argument("--max-block", type=int, required=True, dest="max_block")
    p.add_argument("--type", choices=["B", "D", "both"], default="both")
    p.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    p.add_argument("--verify", action="store_true",
                   help="certify every leaf with the legality oracle")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_comajors)

    p = sub.add_parser("check", help="decide legality of the symmetric pair {c, -c}")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="orbit data of an angle under tripling")
    p.add_argument("x")
    p.add_argument("--max-steps", type=int, default=64, dest="max_steps")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("pullback", help="finite-depth pullback family of a legal pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--prune", action="store_true",
                   help="remove the short quadrilateral edges and their backward orbits")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("render", help="render a chords JSON document to SVG")
    p.add_argument("--in", dest="infile", default=None, help="input JSON (default stdin)")
    p.add_argument("--out", default=None)
    _add_render_flags(p)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        if "size" in args and getattr(args, "format", "svg") == "svg":  # before any build or read
            args.render = _render_cfg(args)
        return args.func(args)
    except tuple(_FAILURES) as exc:  # before ValueError: IllegalSeedError is one
        print(f"{_FAILURES[type(exc)]}: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(json.dumps(exc.witness), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")
        return 2  # unreachable; keeps type checkers content


if __name__ == "__main__":
    sys.exit(main())
