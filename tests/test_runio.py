"""CSV writing: cells that hold the delimiter or the quote read back intact."""

import csv

from sfrbsde.runio import write_csv


def test_write_csv_round_trips_commas_and_quotes(tmp_path):
    rows = [("a,b", 'say "hi"', 1.5), ("plain", "", 2)]
    path = write_csv(tmp_path / "t.csv", ("first", "second", "third"), rows)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got == [["first", "second", "third"], ["a,b", 'say "hi"', "1.5"], ["plain", "", "2"]]
    assert path.read_bytes().splitlines()[2] == b"plain,,2"
