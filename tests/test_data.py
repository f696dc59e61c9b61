import pytest

from paradim.data import data_dir, data_path, load_csv, load_json
from paradim.errors import MissingData


def test_data_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("PARADIM_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    monkeypatch.delenv("PARADIM_DATA_DIR")
    assert (data_dir() / "table_k4.csv").exists()


def test_missing_file():
    with pytest.raises(MissingData):
        data_path("no_such_file.csv")


def test_load_csv():
    rows = load_csv("table_k4.csv")
    assert rows[0]["p"] == "7"
    assert len(rows) == 108
    assert set(rows[0]) == {"p", "H", "R", "S_plus", "S_minus"}


def test_load_json():
    records = load_json("hilbert_series.json")
    assert len(records) == 54
    assert all({"p", "space", "den", "num"} <= set(r) for r in records)
