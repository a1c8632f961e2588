"""The config reader against ``configparser``, the reference it replaced.

``config._sections`` reads exactly what ``configparser`` read for lines
without leading whitespace; the deliberate differences each have a case.
"""

import configparser
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.config import (_KEYS, ConfigError, _sections, load_config,
                               parse_config_text)

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def reference(text):
    """``configparser``'s ``{section: {key: value}}`` of ``text``, or None
    where it refuses the text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {section: dict(parser[section]) for section in parser.sections()}


def read(text):
    """``_sections`` of ``text``, or None where it refuses the text."""
    try:
        return _sections(text, "<string>")
    except ConfigError:
        return None


def any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c
                              for c, u in zip(word, upper)))


SPACE = st.sampled_from(["", " ", "  ", "\t"])
HEADERS = st.sampled_from(sorted(_KEYS) + ["Teleporter", "detector"]).map(
    "[{}]".format)
KEYS = st.sampled_from(sorted({key for keys in _KEYS.values() for key in keys})
                       + ["x"]).flatmap(any_case)
# values may hold either delimiter, a comment character or a bracket
VALUES = st.text("0123456789.e-+ auto flat=:#;[]", max_size=10)
OPTIONS = st.builds("{}{}{}{}{}".format, KEYS, SPACE, st.sampled_from("=:"),
                    SPACE, VALUES)
COMMENTS = st.builds("{}{}".format, st.sampled_from("#;"),
                     st.text("abc =:[]", max_size=6))
BLANKS = st.sampled_from(["", " ", "\t "])
# a line of no known form: no delimiter, no bracket, no comment character
JUNK = st.text("abc019 .-", min_size=1, max_size=8).map(lambda s: "j" + s)
LINES = st.one_of(HEADERS, OPTIONS, OPTIONS, COMMENTS, BLANKS, JUNK)


class TestAgainstConfigparser:
    @given(st.lists(LINES, max_size=12), st.sampled_from(["", "\n"]))
    @settings(max_examples=1000, deadline=None)
    def test_unindented_text(self, lines, end):
        text = "\n".join(lines) + end
        assert read(text) == reference(text)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_reference_configs(self, path):
        text = path.read_text()
        assert _sections(text, str(path)) == reference(text)


class TestRefusals:
    @pytest.mark.parametrize("text,number,line", [
        ("[teleporter]\nn_sq 0.5\n", 2, "n_sq 0.5"),
        ("[teleporter]\n= 0.5\n", 2, "= 0.5"),
        ("[teleporter]\n : 0.5\n", 2, ": 0.5"),
        ("# comment\nn_sq = 0.5\n[teleporter]\n", 2, "n_sq = 0.5"),
        ("[source]\n[teleporter]\n\n[source]\n", 4, "[source]"),
        ("[teleporter]\nn_sq = 0.5\nN_SQ: 0.6\n", 3, "N_SQ: 0.6"),
        ("[teleporter]\n[]\n", 2, "[]"),
    ])
    def test_refusal_names_the_line(self, text, number, line):
        assert reference(text) is None
        with pytest.raises(ConfigError) as info:
            parse_config_text(text, "run.cfg")
        assert str(info.value) == f"cannot parse run.cfg: line {number}: {line}"


class TestDeliberateDifferences:
    def test_indented_line_stands_alone(self):
        text = "[teleporter]\nn_sq = 0.5\n  eta_bell = 0.8\n"
        assert reference(text) == {"teleporter": {"n_sq": "0.5\neta_bell = 0.8"}}
        assert _sections(text, "<string>") == {
            "teleporter": {"n_sq": "0.5", "eta_bell": "0.8"}}
        assert parse_config_text(text).teleporter.eta_bell == 0.8

    def test_indented_value_is_not_a_continuation(self):
        text = "[teleporter]\nn_sq =\n  0.5\n"
        assert reference(text) == {"teleporter": {"n_sq": "\n0.5"}}
        with pytest.raises(ConfigError, match="cannot parse <string>: "
                                              "line 3: 0.5$"):
            parse_config_text(text)

    def test_default_section_is_unknown(self):
        text = "[DEFAULT]\nn_sq = 0.5\n[teleporter]\neta_bell = 0.8\n"
        assert reference(text) == {"teleporter": {"n_sq": "0.5",
                                                  "eta_bell": "0.8"}}
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config_text(text)

    def test_text_after_header_refused(self):
        text = "[teleporter] junk\nn_sq = 0.5\n"
        assert reference(text) == {"teleporter": {"n_sq": "0.5"}}
        with pytest.raises(ConfigError, match=r"^cannot parse <string>: line 1: "
                                              r"\[teleporter\] junk$"):
            parse_config_text(text)


class TestEncoding:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_byte_order_mark_ignored(self, path, tmp_path):
        # some editors save UTF-8 with a leading mark, invisible in a message
        marked = tmp_path / path.name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(marked) == load_config(path)
