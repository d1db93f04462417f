"""The committed JSON schemas refuse a document exactly when the parser does.

Each case takes a valid model or experiment document and sets one of its
fields to a value of another JSON type.  JSON Schema counts a number with a
zero fractional part (``3.0``) as an integer, while the parsers read only
integer literals as integers; no schema can tell the two apart, so the
generated numbers of type "number" have a fractional part.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip.errors import CpdzipError
from cpdzip.experiments import _CONFIG_FIELDS, KINDS, load_experiment_config
from cpdzip.model import model_from_dict, require_valid

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parent.parent


def _validator(name: str):
    schema = json.loads((ROOT / "schemas" / name).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


MODEL_SCHEMA = _validator("modelspec.schema.json")
EXPERIMENT_SCHEMA = _validator("experiment.schema.json")

MODEL_DOCS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in (ROOT / "models" / "rank_one_uniform.json", ROOT / "models" / "cubic_sign.json")
]
EXPERIMENT_DOCS = [
    json.loads((ROOT / "models" / "spectrum_config.json").read_text(encoding="utf-8")),
    {
        "model": "models/cubic_sign.json",
        "kind": "threshold",
        "n_grid": [2, 3],
        "gamma_grid": ["1/10", "1/4"],
        "trials": 5,
        "seed": 3,
        "out": "results/thr",
        "budget": 4096,
        "emit_samples": False,
    },
]

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6))
JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-(2**40), 2**40),
    "number": st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer()
    ),
    "string": st.text(max_size=8),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def parser_accepts_model(doc) -> bool:
    try:
        require_valid(model_from_dict(doc))
    except CpdzipError:
        return False
    return True


def parser_accepts_experiment(doc, path: Path) -> bool:
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_experiment_config(path)
    except CpdzipError:
        return False
    return True


@st.composite
def retyped(draw, docs):
    doc = dict(draw(st.sampled_from(docs)))
    field = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(sorted(set(JSON_TYPES) - {json_type(doc[field])})))
    doc[field] = draw(JSON_TYPES[kind])
    return doc


def test_base_documents_are_accepted(tmp_path):
    for doc in MODEL_DOCS:
        assert MODEL_SCHEMA.is_valid(doc) and parser_accepts_model(doc)
    for doc in EXPERIMENT_DOCS:
        assert EXPERIMENT_SCHEMA.is_valid(doc)
        assert parser_accepts_experiment(doc, tmp_path / "cfg.json")


@given(retyped(MODEL_DOCS))
@settings(max_examples=300, deadline=None)
def test_model_schema_and_parser_agree(doc):
    assert MODEL_SCHEMA.is_valid(doc) == parser_accepts_model(doc)


@given(retyped(EXPERIMENT_DOCS))
@settings(max_examples=300, deadline=None)
def test_experiment_schema_and_parser_agree(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "retyped-cfg.json"
    assert EXPERIMENT_SCHEMA.is_valid(doc) == parser_accepts_experiment(doc, path)


@pytest.mark.parametrize("name", ["name", "Order", ""])
def test_unknown_model_field_is_refused_by_schema_and_parser(name):
    for base in MODEL_DOCS:
        doc = dict(base, **{name: 1})
        assert not MODEL_SCHEMA.is_valid(doc)
        assert not parser_accepts_model(doc)


@pytest.mark.parametrize("name", ["comment", "gamma", ""])
def test_unknown_experiment_field_is_refused_by_schema_and_parser(tmp_path, name):
    for base in EXPERIMENT_DOCS:
        doc = dict(base, **{name: "x"})
        assert not EXPERIMENT_SCHEMA.is_valid(doc)
        assert not parser_accepts_experiment(doc, tmp_path / "cfg.json")


@pytest.mark.parametrize("grid", [[1], ["1/10", 2], [0.5]])
def test_non_string_gamma_grid_item_is_refused_by_schema_and_parser(tmp_path, grid):
    for base in EXPERIMENT_DOCS:
        doc = dict(base, gamma_grid=grid)
        assert not EXPERIMENT_SCHEMA.is_valid(doc)
        assert not parser_accepts_experiment(doc, tmp_path / "cfg.json")


@pytest.mark.parametrize("gamma", ["-1/10", "1/0", "0", "0/3"])
def test_non_positive_or_malformed_gamma_is_refused_by_schema_and_parser(tmp_path, gamma):
    for base in EXPERIMENT_DOCS:
        doc = dict(base, gamma_grid=["1/10", gamma])
        assert not EXPERIMENT_SCHEMA.is_valid(doc)
        assert not parser_accepts_experiment(doc, tmp_path / "cfg.json")


@pytest.mark.parametrize("gamma", ["1/10\n", "3\n", "1/10\r\n"])
def test_gamma_with_a_trailing_newline_is_refused_by_schema_and_parser(tmp_path, gamma):
    for base in EXPERIMENT_DOCS:
        doc = dict(base, gamma_grid=["1/10", gamma])
        assert not EXPERIMENT_SCHEMA.is_valid(doc)
        assert not parser_accepts_experiment(doc, tmp_path / "cfg.json")


@pytest.mark.parametrize("out", ["", ".", "/", "./", "a.v2", "..", "./a", "/a", ".a", "./\n"])
def test_schema_and_parser_agree_on_which_out_names_a_file(tmp_path, out):
    names_a_file = out not in ("", ".", "/", "./")
    for base in EXPERIMENT_DOCS:
        doc = dict(base, out=out)
        assert EXPERIMENT_SCHEMA.is_valid(doc) == names_a_file
        assert parser_accepts_experiment(doc, tmp_path / "cfg.json") == names_a_file


def with_trailing_newline(doc, field, end):
    """A copy of ``doc`` whose first rational in ``field`` ends in ``end``."""
    doc = json.loads(json.dumps(doc))
    items = doc[field]
    while isinstance(items[0], list):
        items = items[0]
    items[0] = f"{items[0]}{end}"
    return doc


@pytest.mark.parametrize("field", ["alphabets", "dists"])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_model_rational_with_a_trailing_newline_is_refused_by_schema_and_parser(field, end):
    for base in MODEL_DOCS:
        doc = with_trailing_newline(base, field, end)
        assert MODEL_SCHEMA.is_valid(with_trailing_newline(base, field, ""))
        assert not MODEL_SCHEMA.is_valid(doc)
        assert not parser_accepts_model(doc)


def test_experiment_schema_names_the_parsers_kinds_and_fields():
    schema = EXPERIMENT_SCHEMA.schema
    assert tuple(schema["properties"]["kind"]["enum"]) == KINDS
    assert tuple(schema["properties"]) == _CONFIG_FIELDS


@pytest.mark.parametrize("seed", [-1, 0, (1 << 64) - 1, 1 << 64])
def test_schema_and_parser_agree_on_the_seed_range(tmp_path, seed):
    in_range = 0 <= seed < 1 << 64
    for base in EXPERIMENT_DOCS:
        doc = dict(base, seed=seed)
        assert EXPERIMENT_SCHEMA.is_valid(doc) == in_range
        assert parser_accepts_experiment(doc, tmp_path / "cfg.json") == in_range
