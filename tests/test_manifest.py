import pytest

from phonassess.errors import ManifestError
from phonassess.manifest import GROUPS, load_manifest

HEADER = ("subject_id,group,sex,age,duration,updrs3,updrs4,rbdsq,fog,nmss,"
          "bdi,mmse,acer,led,path_a_s,path_e_ll")


def write_manifest(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def group_counts(manifest):
    return {group: sum(row.group == group for row in manifest.rows) for group in GROUPS}


def test_basic_load(tmp_path):
    path = write_manifest(tmp_path, [
        "P1,PD,F,66,7.5,22,3,4,6,36,18,27,87,860,p1_a_s.wav,p1_e_ll.wav",
        "H1,HC,M,64,,,,,,,,,,,h1_a_s.wav,",
    ])
    m = load_manifest(path)
    assert len(m.rows) == 2
    p1, h1 = m.rows
    assert (p1.subject_id, h1.subject_id) == ("P1", "H1")
    assert p1.scores["mmse"] == 27
    assert ("a", "s") in p1.recordings
    assert p1.recordings[("a", "s")].name == "p1_a_s.wav"
    assert ("e", "ll") not in h1.recordings


def test_mmse_range_violation(tmp_path):
    path = write_manifest(tmp_path, ["P1,PD,F,66,,,,,,,,31,,,," ])
    with pytest.raises(ManifestError, match="mmse"):
        load_manifest(path)


@pytest.mark.parametrize("updrs3, led, bad", [
    ("nan", "", "updrs3='nan'"),
    ("22", "inf", "led='inf'"),
    ("abc", "", "updrs3='abc'"),
    ("-Infinity", "", "updrs3='-Infinity'"),
], ids=["nan", "inf_unbounded", "text", "minus_inf"])
def test_score_cell_is_a_finite_number(tmp_path, updrs3, led, bad):
    """nan is no missing score, and an unbounded scale takes no inf."""
    path = write_manifest(tmp_path, [f"P1,PD,F,66,7.5,{updrs3},,,,,,,,{led},,"])
    with pytest.raises(ManifestError, match=f"P1: {bad} is not a finite number"):
        load_manifest(path)


def test_controls_all_missing_accepted(tmp_path):
    path = write_manifest(tmp_path, ["H1,HC,F,60,,,,,,,,,,,,"])
    m = load_manifest(path)
    assert all(v is None for v in m.rows[0].scores.values())


def test_group_counts(tmp_path):
    rows = [f"P{i},PD,F,66,,,,,,,,,,,," for i in range(84)]
    rows += [f"H{i},HC,M,65,,,,,,,,,,,," for i in range(49)]
    m = load_manifest(write_manifest(tmp_path, rows))
    assert group_counts(m) == {"PD": 84, "HC": 49}


def test_duplicate_subject(tmp_path):
    path = write_manifest(tmp_path, [
        "P1,PD,F,66,,,,,,,,,,,,",
        "P1,PD,M,70,,,,,,,,,,,,",
    ])
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


@pytest.mark.parametrize("column", ["path_a_s", "updrs3", "group"])
def test_column_named_twice(tmp_path, column):
    # the reader would keep the second cell of a repeated column and drop the first
    path = tmp_path / "manifest.csv"
    path.write_text(f"subject_id,group,updrs3,path_a_s,{column}\nP1,PD,20,a.wav,b.wav\n")
    with pytest.raises(ManifestError, match=f"'{column}' appears twice"):
        load_manifest(path)


def test_unknown_group(tmp_path):
    path = write_manifest(tmp_path, ["P1,XX,F,66,,,,,,,,,,,,"])
    with pytest.raises(ManifestError, match="group"):
        load_manifest(path)


@pytest.mark.parametrize("column,value", [
    ("updrs3", "109"), ("updrs4", "24"), ("rbdsq", "14"), ("fog", "25"),
    ("nmss", "361"), ("bdi", "64"), ("acer", "101"), ("duration", "-1"),
])
def test_theoretical_ranges(tmp_path, column, value):
    cells = {"subject_id": "P1", "group": "PD", "sex": "F", "age": "66"}
    names = HEADER.split(",")
    row = ",".join(cells.get(n, value if n == column else "") for n in names)
    with pytest.raises(ManifestError, match=column):
        load_manifest(write_manifest(tmp_path, [row]))


def test_unbounded_scales_accept_large(tmp_path):
    path = write_manifest(tmp_path, ["P1,PD,F,66,30,,,,,,,,,5000,,"])
    m = load_manifest(path)
    assert m.rows[0].scores["led"] == 5000


def test_demographic_cells_are_not_parsed(tmp_path):
    # sex and age are carried in the header but read by nothing
    m = load_manifest(write_manifest(tmp_path, ["P1,PD,F,sixty,,,,,,,,,,,,"]))
    assert group_counts(m) == {"PD": 1, "HC": 0}
