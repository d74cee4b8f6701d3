"""Table formatter tests (the harness's only output dependency)."""

from repro.experiments.tables import format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["name", "value"],
            [("a", 1), ("long-name", 123456)],
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        # Every line equally wide modulo trailing spaces.
        widths = {len(line.rstrip()) <= len(lines[0]) for line in lines}
        assert widths == {True}
        assert "long-name" in lines[3]

    def test_title(self):
        text = format_table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [(3.14159,)])
        assert "3.1" in text and "3.14159" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert len(text.splitlines()) == 2
