"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/record_expected.py

Writes bench/expected.json: byte digests of the comajors and emit
outputs, the certify counts and the prune kept counts, for both sizes,
over every input a seed can choose.  Run it only where the outputs are
known to be right; a change that alters an output on purpose records
again and says so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from trilam import pullback  # noqa: E402
from workloads import Certify, Comajors, Emit, Prune, chord_key, comajor_classes, digest  # noqa: E402


def record(size: str, workdir: Path) -> dict:
    comajors = Comajors(0, size, {}, workdir)
    n, js, csv, svg = comajors.run(comajors.max_block)
    certify = Certify(0, size, {}, workdir)
    state, audit = certify.run(certify.max_block)
    out = {
        "comajors": {"leaves": n, "json": digest(js), "csv": digest(csv), "svg": digest(svg)},
        "certify": {"leaves": len(state.leaves), "cross_type": len(audit.cross_type),
                    "separated_same_type": len(audit.separated_same_type)},
    }
    classes = comajor_classes(3)
    depth = Prune.SIZES[size]["depth"]
    out["prune"] = {"kept": {
        chord_key(c): len(pullback.hyperbolic_prune(c, depth))
        for cls in Prune.SIZES[size]["strata"] for c in classes[cls]}}
    emit = Emit(0, size, {}, workdir)
    out["emit"] = {}
    for cls in Emit.SIZES[size]["strata"]:
        for c in classes[cls]:
            codes = emit.run(c)
            if codes != (0, 0, 0):
                raise SystemExit(f"emit of {c} exited with {codes}")
            js_path, svg_path, _ = emit.paths(c)
            out["emit"][chord_key(c)] = {"json": digest(js_path.read_bytes()),
                                         "svg": digest(svg_path.read_bytes())}
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        doc = {size: record(size, Path(tmp)) for size in ("full", "small")}
    (BENCH_DIR / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
