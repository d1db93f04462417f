import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip.analysis import bilinear_sign_model, cubic_sign_model
from cpdzip.model import (
    Alphabet,
    Distribution,
    ModelSpec,
    canonical_model_json,
    entropy,
    model_from_dict,
    model_hash,
    model_to_dict,
    theoretical_threshold,
    uniform,
    validate,
)


def entropy_oracle(probs, dps=60) -> float:
    """High-precision direct evaluation of sum -p ln p."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for p in probs:
            if p:
                mp = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
                total += -mp * mpmath.log(mp)
        return float(total)


def test_entropy_uniform_binary():
    assert entropy(uniform(2)) == pytest.approx(math.log(2), rel=1e-15)


def test_entropy_uniform_ternary():
    assert entropy(uniform(3)) == pytest.approx(math.log(3), rel=1e-15)


def test_entropy_quarter_three_quarters():
    d = Distribution((Fraction(1, 4), Fraction(3, 4)))
    # frozen from the 60-dps oracle: 0.56233514461880835029
    assert entropy(d) == pytest.approx(0.5623351446188083, rel=1e-12)
    assert entropy(d) == pytest.approx(entropy_oracle(d.probs), rel=1e-12)


def test_entropy_zero_probability_symbols_ignored():
    d = Distribution((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    assert entropy(d) == pytest.approx(math.log(2), rel=1e-15)


@st.composite
def rational_distributions(draw, size=3):
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=40), min_size=size, max_size=size)
    )
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    return Distribution(probs)


@given(rational_distributions())
@settings(max_examples=60)
def test_entropy_matches_oracle_and_uniform_is_maximal(d):
    h = entropy(d)
    assert h == pytest.approx(entropy_oracle(d.probs), rel=1e-12, abs=1e-14)
    k = len(d.probs)
    assert h <= math.log(k) + 1e-12
    if all(p == Fraction(1, k) for p in d.probs):
        assert h == pytest.approx(math.log(k), rel=1e-12)
    elif any(p != Fraction(1, k) for p in d.probs):
        assert h < math.log(k)


def test_threshold_rank_one_uniform():
    a = Alphabet((-1, 1))
    m = ModelSpec(3, 4, 1, (a, a, a), ((uniform(2),),) * 3)
    assert theoretical_threshold(m) == pytest.approx(3 * math.log(2), rel=1e-14)


def test_threshold_supersymmetric_single_matrix_sum():
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    q = Distribution((Fraction(2, 3), Fraction(1, 3)))
    m = cubic_sign_model(3, p, q)
    assert theoretical_threshold(m) == pytest.approx(entropy(p) + entropy(q), rel=1e-14)


def test_threshold_bilinear_sum_of_four_entropies():
    px = Distribution((Fraction(1, 4), Fraction(3, 4)))
    pu = uniform(2)
    py = Distribution((Fraction(2, 3), Fraction(1, 3)))
    pv = Distribution((Fraction(3, 5), Fraction(2, 5)))
    m = bilinear_sign_model(3, px, pu, py, pv)
    expected = entropy(px) + entropy(pu) + entropy(py) + entropy(pv)
    assert theoretical_threshold(m) == pytest.approx(expected, rel=1e-14)


def test_threshold_additive_over_modes():
    a = Alphabet((-1, 1))
    px = Distribution((Fraction(1, 4), Fraction(3, 4)))
    py = Distribution((Fraction(2, 3), Fraction(1, 3)))
    joint = ModelSpec(2, 3, 1, (a, a), ((px,), (py,)))
    part_x = ModelSpec(1, 3, 1, (a,), ((px,),))
    part_y = ModelSpec(1, 3, 1, (a,), ((py,),))
    assert theoretical_threshold(joint) == pytest.approx(
        theoretical_threshold(part_x) + theoretical_threshold(part_y), rel=1e-13
    )
    # additive over columns too: an R=2 mode splits into two R=1 modes
    two_col = ModelSpec(1, 3, 2, (a,), ((px, py),))
    assert theoretical_threshold(two_col) == pytest.approx(
        theoretical_threshold(part_x) + theoretical_threshold(part_y), rel=1e-13
    )


def test_validate_accepts_example_shape():
    m = cubic_sign_model(4, uniform(2), uniform(2))
    assert validate(m) == []


def test_validate_reports_degenerate_distribution():
    a = Alphabet((-1, 1))
    bad = Distribution((Fraction(0), Fraction(1)))
    m = ModelSpec(1, 2, 1, (a,), ((bad,),))
    issues = validate(m)
    assert any("degenerate" in v for v in issues)


def test_validate_reports_unnormalized():
    a = Alphabet((-1, 1))
    bad = Distribution((Fraction(4, 10), Fraction(5, 10)))
    m = ModelSpec(1, 2, 1, (a,), ((bad,),))
    issues = validate(m)
    assert any("not normalized" in v for v in issues)


def test_validate_reports_all_failures_not_just_first():
    a = Alphabet((1, -1))  # unsorted
    bad = Distribution((Fraction(1), Fraction(0)))
    m = ModelSpec(2, 1, 2, (a, a), ((bad, bad), (bad, bad)))
    issues = validate(m)
    assert len(issues) >= 3  # unsorted alphabets, degenerate dists, dim < components


def test_validate_supersymmetric_requires_identical_modes():
    a = Alphabet((-1, 1))
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    m = ModelSpec(2, 3, 1, (a, a), ((p,), (uniform(2),)), supersymmetric=True)
    assert any("supersymmetric" in v for v in validate(m))


def test_json_round_trip_and_integer_symbols():
    m = cubic_sign_model(2, uniform(2), Distribution((Fraction(1, 3), Fraction(2, 3))))
    again = model_from_dict(model_to_dict(m))
    assert again == m
    raw = model_to_dict(m)
    raw["alphabets"] = [[-1, 1]] * 3  # plain ints accepted on input
    assert model_from_dict(raw) == m


def test_canonical_json_and_hash_are_pinned():
    m = cubic_sign_model(2, uniform(2), uniform(2))
    text = canonical_model_json(m)
    assert text == (
        '{"alphabets":[["-1/1","1/1"],["-1/1","1/1"],["-1/1","1/1"]],'
        '"components":2,"dim":2,'
        '"dists":[[["1/2","1/2"],["1/2","1/2"]],[["1/2","1/2"],["1/2","1/2"]],'
        '[["1/2","1/2"],["1/2","1/2"]]],"order":3,"supersymmetric":true}'
    )
    assert model_hash(m).hex() == (
        "ac81fbbea150cfb803614baaca248e5ed988f561a8ab47623fb61c89276df238"
    )


def test_save_and_load_round_trip(tmp_path):
    from cpdzip.model import load_model, save_model

    m = bilinear_sign_model(3, uniform(2), uniform(2), uniform(2), uniform(2))
    path = tmp_path / "model.json"
    save_model(m, path)
    assert load_model(path) == m


@pytest.mark.parametrize(
    "field, value",
    [
        ("supersymmetric", "false"),
        ("supersymmetric", 0),
        ("supersymmetric", None),
        ("dim", 2.9),
        ("dim", 2.0),
        ("dim", "2"),
        ("dim", True),
        ("order", 3.0),
        ("components", False),
        ("alphabets", "-1,1"),
        ("alphabets", [["-1/1", "1/1"], "-1,1", ["-1/1", "1/1"]]),
        ("dists", {"0": []}),
        ("dists", [[["1/2", "1/2"], ["1/2", "1/2"]], [["1/2", "1/2"], "1/2"], [["1/2", "1/2"], ["1/2", "1/2"]]]),
    ],
)
def test_model_fields_are_never_coerced(field, value):
    from cpdzip.model import ModelValidationError

    doc = model_to_dict(cubic_sign_model(2, uniform(2), uniform(2)))
    doc[field] = value
    with pytest.raises(ModelValidationError, match="malformed model document"):
        model_from_dict(doc)


@pytest.mark.parametrize("field", ["order", "dim", "components", "alphabets", "dists"])
def test_model_missing_field_is_refused(field):
    from cpdzip.model import ModelValidationError

    doc = model_to_dict(cubic_sign_model(2, uniform(2), uniform(2)))
    del doc[field]
    with pytest.raises(ModelValidationError, match=field):
        model_from_dict(doc)


def test_model_supersymmetric_defaults_to_false():
    m = bilinear_sign_model(3, uniform(2), uniform(2), uniform(2), uniform(2))
    doc = model_to_dict(m)
    del doc["supersymmetric"]
    assert model_from_dict(doc) == m


def test_load_model_refuses_a_file_that_is_not_json(tmp_path):
    from cpdzip.model import CpdzipError, load_model

    path = tmp_path / "model.json"
    path.write_text("{")
    with pytest.raises(CpdzipError, match="not a JSON document"):
        load_model(path)
