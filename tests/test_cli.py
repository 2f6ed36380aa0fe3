import hashlib
import json
from fractions import Fraction

import pytest

from trilam.angles import parse_angle
from trilam.builder import ComajorRecord
from trilam.chords import Chord
from trilam.cli import main
from trilam.formats import chords_from_json, records_from_json
from trilam.legality import is_legal_pair

from conftest import CROSSING_LEAVES, witness_crosses


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

    real, verdict = builder.is_legal_pair, is_legal_pair(ILLEGAL)
    leaf = Chord(Fraction(5, 12), Fraction(7, 12))
    monkeypatch.setattr(builder, "is_legal_pair", lambda c: verdict if c == leaf else real(c))
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


@pytest.mark.parametrize("doc,message", [
    ([{**_RECORD, "block": "x"}], "record {'a': '1/6', 'b': '1/3', 'type': 'D', 'block': 'x'} "
                                  "needs int 'block'"),
    ([_CHORD], "not a record array: its first item needs str 'type'"),
    (_PRELAMINATION, "not a record array: its first item needs str 'type'"),
], ids=["block-not-an-int", "bare-chord-list", "prelamination"])
def test_records_from_json_rejects_what_is_no_record_array(tmp_path, capsys, doc, message):
    with pytest.raises(ValueError) as err:
        records_from_json(json.dumps(doc))
    assert str(err.value) == message
    if "needs int" in message:  # render --in refuses the same record with the same message
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(SystemExit):
            main(["render", "--in", str(src)])
        assert capsys.readouterr().err == f"trilam: error: {message}\n"


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
    ('{"chords": 5}', "got 5"),
    ('[1, 2]', ": 1"),
    ('[{"a": 5, "b": "1/2"}]', "{'a': 5, 'b': '1/2'}"),
], ids=["no-endpoints", "no-block", "block-not-an-int", "chords-not-a-list", "items-not-chords",
        "angle-not-a-string"])
def test_render_malformed_input_is_usage_error(tmp_path, capsys, text, named):
    src = tmp_path / "bad.json"
    src.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["render", "--in", str(src)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("trilam: error: ") and named in err


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
