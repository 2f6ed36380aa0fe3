import json
from fractions import Fraction

import pytest

from trilam.angles import parse_angle
from trilam.cli import main
from trilam.formats import chords_from_json


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


def test_pullback_illegal_seed_fails(capsys):
    code, _, err = run(capsys, "pullback", "1/12", "1/6", "--depth", "1")
    assert code == 1
    assert "illegal seed" in err


def test_render_from_records(tmp_path, capsys):
    code, out, _ = run(capsys, "comajors", "--max-block", "1", "--format", "json")
    src = tmp_path / "leaves.json"
    src.write_text(out)
    code, svg, _ = run(capsys, "render", "--in", str(src), "--style", "straight")
    assert code == 0
    assert svg.count("<path ") == 4


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
    pairs, n = chords_from_json(doc)
    assert {Fraction(int(x), n) for x in pairs[0]} == {angle, Fraction(1, 5)}
