import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import trilam
from trilam.angles import parse_angle
from trilam.builder import ComajorRecord
from trilam.chords import Chord
from trilam.cli import main
from trilam.builder import build
from trilam.formats import (chords_from_json, prelamination_to_json, records_from_json,
                            records_to_csv, records_to_json)
from trilam.legality import is_legal_pair
from trilam.pullback import build_prelamination, hyperbolic_prune

import reference
from conftest import (COLLISION, CROSSING_LEAVES, ENDPOINT_USAGE, NO_SECTOR, ODD_COMPONENT,
                      OVER_LONG, PRUNED_COMAJOR, witness_crosses)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_comajors_block1_csv(capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "a,b,type,block",
        "1/6,1/3,D,1",
        "2/3,5/6,D,1",
        "5/12,7/12,B,1",
        "1/12,11/12,B,1",
    ]


def test_comajors_block2_json(capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "2", "--format", "json", "--verify")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 16
    assert records[0] == {"a": "1/6", "b": "1/3", "type": "D", "block": 1}


def test_comajors_block2_svg(capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "2", "--format", "svg")
    assert code == 0
    assert out.count("<path ") == 16


def test_comajors_type_filter(capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "2", "--format", "csv",
                       "--type", "B")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 10 and all(",B," in r for r in rows)


def test_check_legal_block1(capsys):
    code, out, _ = run(capsys, "check", "1/6", "1/3")
    assert code == 0
    assert "LEGAL" in out
    assert "type D, block period 1" in out


def test_check_illegal_with_witness(capsys):
    code, out, _ = run(capsys, "check", "1/12", "1/6")
    assert code == 1
    assert "ILLEGAL" in out
    witness = json.loads(out.strip().splitlines()[-1])
    assert witness["kind"] == "strip"
    assert witness["image"] == {"a": "1/4", "b": "1/2"}


def test_check_legal_block2(capsys):
    code, out, _ = run(capsys, "check", "5/24", "7/24")
    assert code == 0
    assert "type D, block period 2" in out


def test_orbit_reports(capsys):
    code, out, _ = run(capsys, "orbit", "1/13")
    assert code == 0 and "preperiod 0, period 3" in out

    code, out, _ = run(capsys, "orbit", "1/12")
    assert code == 0 and "preperiod 1, period 2" in out and "type B, block period 1" in out

    code, out, _ = run(capsys, "orbit", "0")
    assert code == 0 and "type D, block period 1" in out


def test_pullback_degenerate(capsys):
    code, out, _ = run(capsys, "pullback", "1/2", "1/2", "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == 1 and len(doc["chords"]) == 6


def test_pullback_prune_excludes_short_edges(capsys):
    code, out, _ = run(capsys, "pullback", "11/12", "1/12", "--depth", "2", "--prune")
    assert code == 0
    doc = json.loads(out)
    chords = {(c["a"], c["b"]) for c in doc["chords"]}
    assert ("1/12", "11/12") in chords
    assert ("1/4", "5/12") not in chords and ("7/12", "3/4") not in chords


ILLEGAL = Chord(Fraction(1, 12), Fraction(1, 6))


def test_pullback_illegal_seed_fails(capsys):
    code, out, err = run(capsys, "pullback", "1/12", "1/6", "--depth", "1")
    assert code == 1
    assert out == ""
    message, witness = err.splitlines()
    assert message == "illegal seed: seed (1/12, 1/6) is not a legal pair"
    assert json.loads(witness) == is_legal_pair(ILLEGAL).to_json()["witness"]


def test_comajors_verification_failure_prints_json_witness(capsys, monkeypatch):
    from trilam import builder

    real, verdict = builder.legal_mask, is_legal_pair(ILLEGAL)

    def illegal_in_place_of_leaf(pairs, n):
        # the oracle is handed ILLEGAL in the row of the leaf (5/12, 7/12) (class 1B, n = 12)
        pairs[(pairs == [5 * n // 12, 7 * n // 12]).all(1)] = [n // 12, n // 6]
        return real(pairs, n)

    monkeypatch.setattr(builder, "legal_mask", illegal_in_place_of_leaf)
    code, out, err = run(capsys, "comajors", "--max-block", "2", "--verify")
    assert code == 1
    assert out == ""
    message, witness = err.splitlines()
    assert message == "verification failure: leaf (5/12, 7/12) failed certification"
    assert json.loads(witness) == verdict.to_json()["witness"]


def test_render_from_records(tmp_path, capsys):
    # the records written as JSON render to the bytes that comajors writes as SVG
    code, out, _ = run(capsys, "comajors", "--max-block", "5", "--format", "json")
    src = tmp_path / "leaves.json"
    src.write_text(out)
    for style, digest in [([], "12d381be"),
                          (["--color-by", "block", "--style", "straight"], "4a0adf28")]:
        code, svg, _ = run(capsys, "comajors", "--max-block", "5", "--format", "svg", *style)
        assert code == 0
        assert hashlib.sha256(svg.encode()).hexdigest()[:8] == digest
        code, rendered, _ = run(capsys, "render", "--in", str(src), *style)
        assert code == 0
        assert rendered == svg


# sha256 of `comajors --max-block 8 --format F --type T`, recorded before the
# writers moved from records to the builder's rows
_BLOCK8_DIGESTS = {
    ("json", "both"): "c96911878422f6146f341a573518a2235478e39dc584783918690c0e4605b72a",
    ("csv", "both"): "a876be7617ececf19852c35cd64b01a1aaa7dd1ba434c555a074831531f62ba0",
    ("svg", "both"): "147869b865fd5f5bf61aa49c41a4502682d8b269d10788c75cacd85317512e90",
    ("json", "B"): "3d1b634034e8fb77e08b6f9477dba21c607a5e6824ad2c6712b190fbdbafe464",
    ("csv", "B"): "8cba52a4ad7d201385f6b9eb652e9deb44e587346b280002f2f38c9e492fb59f",
    ("svg", "B"): "50d74c45bab92c718371253d8f5de1c599d48000f2802dea82f0de0923b02496",
    ("json", "D"): "faed18abe4bdf4f162fe0f3239b7ef63dc3defcfe0fd84445e5455c3971e7ed5",
    ("csv", "D"): "741cd22ad9c28909e280300bf20240efcc96082668f5c7edfd5ec13191330725",
    ("svg", "D"): "285cd3a6716ac6b5858160b1d3658c5d565085c2d8c71709c25fa588f9c76564",
}


@pytest.mark.parametrize("fmt,ptype", list(_BLOCK8_DIGESTS), ids="-".join)
def test_comajors_block8_output_is_pinned(capsys, fmt, ptype):
    code, out, _ = run(capsys, "comajors", "--max-block", "8", "--format", fmt, "--type", ptype)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _BLOCK8_DIGESTS[fmt, ptype]


def test_comajors_block_colored_straight_svg_is_pinned(capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "5", "--format", "svg",
                       "--color-by", "block", "--style", "straight")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4a0adf28e67de28cd6dd06e2db099909cafb177303fade6682b99a87e36f5af9")


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_comajors_writes_from_rows_without_a_chord_per_leaf(capsys, monkeypatch, fmt):
    # comajors writes the builder's grid rows: no leaf becomes a Chord or a record
    def refuse(cls, p, n):
        raise AssertionError("comajors made a Chord from a grid row")

    want = run(capsys, "comajors", "--max-block", "6", "--format", fmt)
    monkeypatch.setattr(Chord, "from_grid", classmethod(refuse))
    assert run(capsys, "comajors", "--max-block", "6", "--format", fmt) == want
    assert want[0] == 0 and want[1]


_CHORD = {"a": "1/6", "b": "1/3"}
_RECORD = {**_CHORD, "type": "D", "block": 1}
_PRELAMINATION = {"seed": {"a": "1/2", "b": "1/2"}, "depth": 0, "chords": [_CHORD]}


def test_chords_from_json_reads_record_fields_of_record_arrays_only():
    pairs, n, types, blocks = chords_from_json([_RECORD, {**_RECORD, "type": "B", "block": 2}])
    assert n == 6 and pairs.tolist() == [[1, 2], [1, 2]]
    assert (types, blocks) == (["D", "B"], [1, 2])
    # a prelamination document or a list whose first item is a bare chord has no record fields
    for doc in (_PRELAMINATION, [_CHORD], [_CHORD, _RECORD]):
        assert chords_from_json(doc)[1:] == (6, None, None)


def test_records_from_json_round_trips_a_record_array():
    assert records_from_json(json.dumps([_RECORD])) == [
        ComajorRecord(Chord(Fraction(1, 6), Fraction(1, 3)), "D", 1)]
    assert records_from_json("[]\n") == []
    recs = build(3).sorted_leaves()  # what the writers write reads back
    assert records_from_json(records_to_json(recs)) == recs


@pytest.mark.parametrize("doc,message", [
    ([{**_RECORD, "block": "x"}], "record {'a': '1/6', 'b': '1/3', 'type': 'D', 'block': 'x'} "
                                  "needs int 'block'"),
    ([{**_RECORD, "type": "X", "block": True}],
     "record {'a': '1/6', 'b': '1/3', 'type': 'X', 'block': True} needs int 'block'"),
    ([{**_RECORD, "block": 0}], "record {'a': '1/6', 'b': '1/3', 'type': 'D', 'block': 0} "
                                "needs 'block' >= 1"),
    ([_RECORD, {**_RECORD, "type": "X"}], "record types must be 'B' or 'D', got ['X']"),
    ([_CHORD], "not a record array: its first item needs str 'type'"),
    (_PRELAMINATION, "not a record array: its first item needs str 'type'"),
], ids=["block-not-an-int", "block-a-bool", "block-below-1", "type-not-b-or-d", "bare-chord-list",
        "prelamination"])
def test_records_from_json_rejects_what_is_no_record_array(tmp_path, capsys, doc, message):
    with pytest.raises(ValueError) as err:
        records_from_json(json.dumps(doc))
    assert str(err.value) == message
    if message.startswith("record {"):  # render --in refuses the same record, same message
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["render", "--in", str(src)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"trilam: error: {message}\n"


@pytest.mark.parametrize("writer", [records_to_json, records_to_csv])
@pytest.mark.parametrize("record,message", [
    (ComajorRecord(Chord(Fraction(1, 6), Fraction(1, 3)), "X", 1),
     r"record types must be 'B' or 'D', got \['X'\]"),
    (ComajorRecord(Chord(Fraction(1, 6), Fraction(1, 3)), "D", 0),
     r"record ComajorRecord\(.*block_period=0\) needs 'block' >= 1"),
], ids=["type-X", "block-0"])
def test_record_writers_refuse_what_records_from_json_refuses(writer, record, message):
    # a record array the library writes reads back: the writers refuse what the reader does
    good = ComajorRecord(Chord(Fraction(2, 3), Fraction(5, 6)), "D", 1)
    with pytest.raises(ValueError, match=message):
        writer([good, record])


def test_malformed_fraction_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "1/6", "nonsense"])
    assert exc.value.code == 2


def test_bad_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["comajors", "--max-block", "1", "--format", "yaml"])
    assert exc.value.code == 2


def test_comajors_build_failure_exits_1(capsys, monkeypatch):
    import trilam.cli
    from trilam.builder import BuildError

    def broken(max_block, verify=False):
        raise BuildError("component holds an odd number of candidate points: [1/24]")

    monkeypatch.setattr(trilam.cli, "build", broken)
    code, out, err = run(capsys, "comajors", "--max-block", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("build failure: component holds an odd number")


def test_pullback_modulus_beyond_int64_keys_is_usage_error(capsys):
    # 6 * 3^19 exceeds the largest modulus whose chord keys fit int64;
    # the job is refused before any level is expanded
    with pytest.raises(SystemExit) as exc:
        main(["pullback", "1/2", "1/2", "--depth", "19"])
    assert exc.value.code == 2
    assert "would wrap" in capsys.readouterr().err


def test_comajors_block_beyond_int64_is_refused_before_step_2(capsys, monkeypatch):
    # 2 (3^20 - 1) exceeds the largest int64 modulus: block 20's points cannot be
    # enumerated, so the job is refused before blocks 2..19 are built
    from trilam import builder

    def never(state, block):
        raise AssertionError(f"step {block} ran before the refusal")

    monkeypatch.setattr(builder, "run_step", never)
    with pytest.raises(SystemExit) as exc:
        main(["comajors", "--max-block", "20"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # it names the block asked for and the largest block accepted
    assert "would wrap" in err and "block 20 " in err and "largest block is 19" in err


def test_size_without_room_for_the_circle_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pullback", "1/12", "11/12", "--depth", "1", "--format", "svg", "--size", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_orbit_without_steps_is_usage_error(capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "1/7", "--max-steps", steps])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [[], ["--prune"]], ids=["plain", "prune"])
def test_pullback_invariant_failure_exits_1(capsys, monkeypatch, argv):
    import trilam.cli
    from trilam.pullback import InvariantError

    def broken(c, depth):
        raise InvariantError(f"pullback family of {c} produced a crossing")

    monkeypatch.setattr(trilam.cli, "build_prelamination", broken)
    monkeypatch.setattr(trilam.cli, "hyperbolic_prune", broken)
    code, out, err = run(capsys, "pullback", "11/12", "1/12", "--depth", "2", *argv)
    assert code == 1
    assert out == ""
    assert err == "invariant failure: pullback family of (11/12, 1/12) produced a crossing\n"


def test_comajors_crossing_prints_witness_and_exits_1(capsys, crossing_leaf):
    code, out, err = run(capsys, "comajors", "--max-block", "2")
    assert code == 1
    assert out == ""
    message, witness = err.splitlines()
    assert message == "build failure: leaf (1/6, 1/3) crosses leaf (1/4, 3/8)"
    assert json.loads(witness) == CROSSING_LEAVES


@pytest.mark.parametrize("fixture,message,witness", [
    ("odd_component", "component holds an odd number of candidate points: ['1/24']",
     ODD_COMPONENT),
    ("over_long_leaf", "consecutive pairing produced an over-long chord (0, 1/4)", OVER_LONG),
    ("colliding_point", "candidate point 1/6 collides with an existing leaf endpoint", COLLISION),
    ("no_seed", "central point 1/48 lies in no sector", NO_SECTOR),
], ids=["odd-component", "over-long", "collision", "no-sector"])
def test_comajors_pairing_failure_prints_witness_and_exits_1(capsys, request, fixture, message,
                                                             witness):
    request.getfixturevalue(fixture)
    code, out, err = run(capsys, "comajors", "--max-block", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"build failure: {message}", json.dumps(witness)]


@pytest.mark.parametrize("fixture,argv,message,witness", [
    ("extra_candidate", ["comajors", "--max-block", "1", "--verify"],
     "build failure: endpoint usage does not cover each candidate point exactly once",
     ENDPOINT_USAGE),
    ("pruning_everything", ["pullback", "5/24", "7/24", "--depth", "2", "--prune"],
     "invariant failure: comajor (5/24, 7/24) did not survive its own pruning", PRUNED_COMAJOR),
], ids=["endpoint-usage", "pruned-comajor"])
def test_contract_failure_prints_witness_and_exits_1(capsys, request, fixture, argv, message,
                                                     witness):
    request.getfixturevalue(fixture)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [message, json.dumps(witness)]


def test_pullback_without_matching_prints_witness_and_exits_1(capsys, no_matching):
    code, out, err = run(capsys, "pullback", "5/24", "7/24", "--depth", "1")
    assert code == 1
    assert out == ""
    message, witness = err.splitlines()
    witness = json.loads(witness)
    parent = Chord(parse_angle(witness["parent"]["a"]), parse_angle(witness["parent"]["b"]))
    assert message == (f"invariant failure: no matching of the preimages of {parent} "
                       "survives its barriers")
    assert witness["kind"] == "no-matching" and witness["survivors"]
    for item in witness["survivors"]:  # each survivor is a preimage of the parent
        a, b = (parse_angle(item[k]) for k in "ab")
        assert {3 * a % 1, 3 * b % 1} == {parent.a, parent.b}


@pytest.mark.parametrize("argv", [[], ["--prune"]], ids=["plain", "prune"])
def test_pullback_crossing_prints_witness_and_exits_1(capsys, crossing_pullback, argv):
    code, out, err = run(capsys, "pullback", "11/12", "1/12", "--depth", "2", *argv)
    assert code == 1
    assert out == ""
    message, witness = err.splitlines()
    assert message.startswith("invariant failure: pullback family of (11/12, 1/12) produced a "
                              "crossing: ")
    assert witness_crosses(json.loads(witness))


@pytest.mark.parametrize("text,named", [
    ('[{"x": 1}]', "{'x': 1}"),
    ('[{"a": "1/6", "b": "1/3", "type": "D"}]', "int 'block'"),
    ('[{"a": "1/6", "b": "1/3", "type": "D", "block": "x"}]', "int 'block'"),
    ('[{"a": "1/6", "b": "1/3", "type": "X", "block": true}]', "int 'block'"),
    ('[{"a": "1/6", "b": "1/3", "type": "D", "block": 0}]', "'block' >= 1"),
    ('{"chords": 5}', "got 5"),
    ('[1, 2]', ": 1"),
    ('[{"a": 5, "b": "1/2"}]', "{'a': 5, 'b': '1/2'}"),
], ids=["no-endpoints", "no-block", "block-not-an-int", "block-a-bool", "block-below-1",
        "chords-not-a-list", "items-not-chords", "angle-not-a-string"])
def test_render_malformed_input_is_usage_error(tmp_path, capsys, text, named):
    src = tmp_path / "bad.json"
    src.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["render", "--in", str(src)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("trilam: error: ") and named in err


def _chords(*angles):
    return [{"a": a, "b": b} for a, b in zip(angles[0::2], angles[1::2])]


@pytest.mark.parametrize("doc", [
    [],
    {"seed": {"a": "1/2", "b": "1/2"}, "depth": 0, "chords": _chords("1/6", "1/3", "5/6", "2/3")},
    _chords("3", "1/5", " 4 / 5 ", "+2/3", "-1/3", "1_0/2_0", "\u0661/\u0663", "\u00a01/2\n"),
    _chords("2/4", "3/12", "7/7", "9/6", "0/1", "-0/5", "10/12", "2/24"),
    _chords("9223372036854775807/9223372036854775807", "-9223372036854775808/3"),
    _chords(f"1/{2**62}", f"1/{3**39}"),  # each fits int64, their lcm does not
    _chords(f"10/{2**66}", "1/3"),
    _chords("99999999999999999999/7", "1/3"),
    _chords("1/2", "1/3", "1/0", "1/2"),
    _chords("1/2", "1/-2"),
    _chords("1/2", "1/2/3"),
    _chords("1/2", ""),
    _chords("/3", "1/2"),
    _chords("3/", "1/2"),
    _chords("a/b", "1/2"),
    _chords("1.0/2", "1/2"),
    _chords("12\u0000", "1/2"),
    _chords("1\u00002", "1/2"),
    _chords(" ", "1/2"),
    [{"a": 5, "b": "1/2"}],
    [{"a": None, "b": "1/2"}],
    [{"a": ["1/2"], "b": ["1/3"]}],
    [{"a": "1/2", "b": "1/3"}, {"a": "x", "b": "1/2"}, {"b": "1/2"}],
    [{"a": "1/2", "b": "1/3"}, {"b": "1/2"}, {"a": "x", "b": "1/2"}],
    [{"a": "1/2", "b": "1/3"}, "1/2"],
    [["1/2", "1/3"]],
    {"chords": {"a": "1/2", "b": "1/3"}},
], ids=["empty", "prelamination", "int-syntax", "unreduced", "int64-extremes", "lcm-past-int64",
        "denominator-past-int64", "numerator-past-int64", "zero-denominator",
        "negative-denominator", "two-slashes", "empty-angle", "no-numerator", "no-denominator",
        "letters", "decimal", "trailing-nul", "inner-nul", "blank", "int-angle", "null-angle",
        "list-angles", "malformed-before-missing", "missing-before-malformed", "str-item",
        "list-item", "chords-not-a-list"])
def test_chords_from_json_reads_as_the_per_string_reader(doc):
    # the column reader accepts what the per-string reader accepts, with the
    # same rows, dtype and grid, and refuses the rest with the same message
    try:
        want = reference.chords_by_string(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            chords_from_json(doc)
        assert str(err.value) == str(exc)
        return
    pairs, n, types, blocks = chords_from_json(doc)
    assert (pairs.dtype, pairs.tolist(), n) == (want[0].dtype, want[0].tolist(), want[1])
    assert (types, blocks) == (None, None)


@pytest.mark.parametrize("angle", [
    " 1/3", "+1/3", "1_0/30", "\u0661/\u0663", "01/03", "-1/3", "0", "7",
    "1234567890123456789/7",  # 19 digits
    f"1/{2**59}",  # 18 digits, but with 1/35 the grid passes int64
    "1/3/", "1//3", "1/0", "1/-3", "", 5,
])
def test_chords_from_json_reads_canonical_text_as_parse_fraction(angle):
    # canonical documents ('p/q' of at most 18 ASCII digits each) take one regex and one
    # parse; any other angle sends the whole document through `parse_fraction`, which
    # defines what is accepted: the same rows and grid, or a ValueError
    item = {"a": angle, "b": "1/35"}
    for doc in (_chords("1/6", "1/3", "5/6", "2/3", "0/1", "7/12") + [item], [item]):
        try:
            want = reference.chords_by_string(doc)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                chords_from_json(doc)
            assert str(err.value) == str(exc)
            continue
        pairs, n, _, _ = chords_from_json(doc)
        assert (pairs.dtype, pairs.tolist(), n) == (want[0].dtype, want[0].tolist(), want[1])


def test_canonical_text_is_read_without_a_parse_per_string(monkeypatch):
    from trilam import formats

    def refuse(text):
        raise AssertionError(f"canonical angle {text!r} parsed as a string")

    doc = _chords("1/6", "1/3", "5/6", "2/3", "0/1", f"7/{10**18 - 1}")
    want = reference.chords_by_string(doc)
    monkeypatch.setattr(formats, "parse_fraction", refuse)
    pairs, n, _, _ = chords_from_json(doc)
    assert (pairs.dtype, pairs.tolist(), n) == (want[0].dtype, want[0].tolist(), want[1])


def _pullback_json(a, b, depth, prune=False):
    pre = (hyperbolic_prune if prune else build_prelamination)(Chord(a, b), depth)
    return prelamination_to_json(pre.seed, pre.depth, pre.pairs, pre.modulus).encode()


def _outcome(read, data):
    """What `read(data)` gives: rows, dtype, grid, types and blocks, or its error."""
    try:
        pairs, n, types, blocks = read(data)
    except Exception as exc:
        return type(exc), str(exc)
    return pairs.dtype, pairs.tolist(), n, types, blocks


def _mutants(data: bytes):
    """The document, then, at every offset, its byte deleted, doubled or replaced."""
    yield data
    for i in range(len(data)):
        yield data[:i] + data[i + 1:]
        yield data[:i + 1] + data[i:]
        for b in b'09/" \n-BDX{':
            yield data[:i] + bytes([b]) + data[i + 1:]


_DOCS = {
    "pruned": _pullback_json(Fraction(5, 24), Fraction(7, 24), 2, prune=True),
    "degenerate": _pullback_json(Fraction(1, 36), Fraction(1, 36), 2),
    "records": records_to_json(build(3).sorted_leaves()).encode(),
}
_PRELAMINATION_HEAD = b'{\n"seed": {\n"a": "1/2",\n"b": "1/2"\n},\n"depth": 0,\n"chords": '
_ONE_RECORD = b'[\n{\n"a": "1/6",\n"b": "1/3",\n"type": "D",\n"block": 1\n}\n]\n'


@pytest.mark.parametrize("data", [
    *_DOCS.values(),
    _PRELAMINATION_HEAD + b'[]\n}\n',
    b"[]\n",
    b"",
    _ONE_RECORD,
    _ONE_RECORD.replace(b'"1/6"', b'"1234567890123456789/7"'),
    _ONE_RECORD.replace(b'"1/6"', b'"0/0"'),
    _ONE_RECORD.replace(b'"1/6"', b'"1/%d"' % 2**62).replace(b'"1/3"', b'"1/%d"' % 3**39),
    _ONE_RECORD.replace(b'"block": 1', b'"block": 0'),
    _ONE_RECORD.replace(b'"block": 1', b'"block": 01'),
    _ONE_RECORD.replace(b'"block": 1', b'"block": -1'),
    _ONE_RECORD.replace(b'"block": 1', b'"block": 1000000000000000000'),
    _ONE_RECORD.replace(b'"D"', b'"X"'),
    _DOCS["pruned"].replace(b'"depth": 2', b'"depth": 07'),
    _DOCS["pruned"].replace(b'"depth": 2', b'"depth": -2'),
    b"\xef\xbb\xbf" + _DOCS["pruned"],
    _DOCS["pruned"].decode().encode("utf-16"),
    _DOCS["pruned"].replace(b"\n", b"\r\n"),
    _DOCS["pruned"].rstrip(b"\n"),
    _DOCS["pruned"] + b"\n",
    _DOCS["pruned"] + b"{}",
    _ONE_RECORD.replace(b'"a": "1/6",\n"b": "1/3"', b'"b": "1/3",\n"a": "1/6"'),
    json.dumps(json.loads(_DOCS["records"]), indent=2).encode(),
], ids=[*_DOCS, "no-chords", "empty-array", "empty", "one-record", "19-digits",
        "zero-denominator", "lcm-past-int64", "block-0", "block-leading-zero", "block-signed",
        "block-19-digits", "type-X", "depth-leading-zero", "depth-signed", "bom", "utf-16",
        "crlf", "no-final-newline", "trailing-newline", "trailing-data", "key-order", "indent-2"])
def test_chords_from_json_reads_bytes_as_their_parse(data):
    # raw bytes read as `json.loads` of them read: the same rows, dtype, grid, types and
    # blocks, or the same error; so does every one-byte mutant of three canonical documents
    docs = _mutants(data) if data in _DOCS.values() else [data]
    for doc in docs:
        want = _outcome(lambda d: chords_from_json(json.loads(d)), doc)
        assert _outcome(chords_from_json, doc) == want, doc


def test_writers_layout_is_read_without_a_parse(monkeypatch):
    # the writers' documents are read from their bytes: json.loads is never called
    from trilam import formats

    def refuse(*args, **kwargs):
        raise AssertionError("the document was parsed")

    recs = build(5).sorted_leaves()
    docs = [_DOCS["pruned"], records_to_json(recs).encode()]
    wants = [_outcome(lambda d: chords_from_json(json.loads(d)), doc) for doc in docs]
    monkeypatch.setattr(formats.json, "loads", refuse)
    assert [_outcome(chords_from_json, doc) for doc in docs] == wants
    (_, _, _, types, blocks) = wants[1]
    assert set(types) == {"B", "D"} and set(blocks) == {1, 2, 3, 4, 5}


def test_reading_a_canonical_document_peaks_below_its_size_2_5_times():
    # no parsed document and no str per angle: ints are parsed 512 chords at a time
    data = _pullback_json(Fraction(7, 39), Fraction(8, 39), 8, prune=True)
    tracemalloc.start()
    try:
        pairs, _, _, _ = chords_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 65610
    assert peak < 2.5 * len(data)


_LEAVES = records_to_json(build(3).sorted_leaves())


@pytest.mark.parametrize("argv", [
    ["comajors", "--max-block", "3", "--format", "json"],
    ["comajors", "--max-block", "3", "--format", "csv"],
    ["comajors", "--max-block", "3", "--format", "svg"],
    ["pullback", "5/24", "7/24", "--depth", "4", "--prune", "--format", "json"],
    ["pullback", "5/24", "7/24", "--depth", "4", "--prune", "--format", "svg"],
    ["render", "--in", "{doc}"],
], ids=["comajors-json", "comajors-csv", "comajors-svg", "pullback-json", "pullback-svg",
        "render"])
def test_out_file_and_stdout_get_the_same_bytes(tmp_path, capsysbinary, argv):
    doc = tmp_path / "leaves.json"
    doc.write_text(_LEAVES)
    argv = [a.format(doc=doc) for a in argv]
    assert main(argv + ["--out", "-"]) == 0
    out = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert out and (tmp_path / "out").read_bytes() == out
    assert capsysbinary.readouterr() == (b"", b"")


def test_render_reads_stdin_as_the_file(tmp_path, capsysbinary, monkeypatch):
    doc = tmp_path / "leaves.json"
    doc.write_text(_LEAVES)
    assert main(["render", "--in", str(doc)]) == 0
    want = capsysbinary.readouterr().out
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(_LEAVES.encode())))
    assert main(["render"]) == 0
    assert capsysbinary.readouterr().out == want


def test_witness_is_one_json_line_after_the_message(capsysbinary):
    assert main(["pullback", "1/12", "1/6", "--depth", "1"]) == 1
    out, err = capsysbinary.readouterr()
    message, witness = err.decode().splitlines()
    assert out == b"" and message == "illegal seed: seed (1/12, 1/6) is not a legal pair"
    assert json.loads(witness) == is_legal_pair(ILLEGAL).to_json()["witness"]


@pytest.mark.parametrize("argv", [
    ["render", "--in", "{dir}/missing.json"],
    ["pullback", "11/12", "1/12", "--depth", "2", "--out", "{dir}/no/such/x.json"],
], ids=["render-missing-input", "pullback-unwritable-output"])
def test_file_error_is_usage_error(tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("trilam: error: ") and "No such file or directory" in err
    assert str(tmp_path) in err


@pytest.mark.parametrize("text,angle", [
    (" 3/6 ", Fraction(1, 2)),
    ("7", Fraction(0)),
    ("-1/3", Fraction(2, 3)),
    ("4/3", Fraction(1, 3)),
    ("1/0", None),
    ("1/-2", None),
    ("1/2/3", None),
    ("", None),
    ("a/b", None),
])
def test_angle_readers_agree(tmp_path, capsys, text, angle):
    # parse_angle and the grid reader of render --in share one string parser
    doc = [{"a": text, "b": "1/5"}]
    if angle is None:
        with pytest.raises(ValueError, match="malformed fraction"):
            parse_angle(text)
        src = tmp_path / "chord.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["render", "--in", str(src)])
        assert exc.value.code == 2
        assert "malformed fraction" in capsys.readouterr().err
        return
    assert parse_angle(text) == angle
    pairs, n, _, _ = chords_from_json(doc)
    assert {Fraction(int(x), n) for x in pairs[0]} == {angle, Fraction(1, 5)}


@pytest.mark.parametrize("argv", [
    ["pullback", "7/39", "8/39", "--depth", "8", "--prune", "--format", "json"],
    ["pullback", "7/39", "8/39", "--depth", "8", "--prune", "--format", "svg"],
    ["comajors", "--max-block", "8", "--format", "csv"],
], ids=["json", "svg", "csv"])
def test_closed_stdout_ends_quietly(argv):
    # a reader such as `head -c 100` closes the pipe long before the MB-sized document ends
    src = str(Path(trilam.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "trilam.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
