import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidsigma import characters
from braidsigma.characters import (
    Character,
    CharacterFormatError,
    ZeroCharacterError,
    _pair_sum,
    _parse_weight,
    all_edges,
    character_from_json,
    character_from_json_dict,
    delta_value,
    permute,
    swing_set,
    swing_value,
)
from braidsigma.cli import EXIT_INPUT_ERROR, main
from conftest import (
    add_characters,
    character_to_json_dict,
    dense,
    pullback_phi,
    pullback_rho,
    random_character,
    random_perm,
    scale,
    sparse,
    zero_character,
)


def compose_perms(sigma, tau):
    """(tau o sigma): first sigma, then tau."""
    return tuple(tau[s - 1] for s in sigma)


# the right count of pairs with one wrong, and one too few
@pytest.mark.parametrize(
    "weights, message",
    [
        ({(1, 2): 1, (1, 3): 1, (2, 4): 1}, r"missing=\[\(2, 3\)\] extra=\[\(2, 4\)\]"),
        ({(1, 2): 1, (1, 3): 0}, r"missing=\[\(2, 3\)\] extra=\[\]"),
    ],
    ids=["wrong-pair", "too-few"],
)
def test_dense_needs_every_pair(weights, message):
    with pytest.raises(CharacterFormatError, match=message):
        dense(3, weights)


@pytest.mark.parametrize(
    "support, message",
    [
        ({(2, 1): 1}, r"pair \(2, 1\) is not \(i, j\) with 1 <= i < j <= 3"),
        ({(1, 2): 1, (3, 4): 1}, r"pair \(3, 4\) is not"),
        ({(0, 1): 1}, r"pair \(0, 1\) is not"),
        ({(1, 2): 1, (1, 3): Fraction(0)}, r"pair \(1, 3\) has weight 0"),
        # each equals (1, 2), but a certificate would print it as it is
        ({(1.0, 2.0): 1, (2, 3): -1}, r"pair \(1.0, 2.0\) is not .* ints"),
        ({(True, 2): 1}, r"pair \(True, 2\) is not"),
        ({(1, 2.0): 1}, r"pair \(1, 2.0\) is not"),
        ({5: 1}, r"pair 5 is not"),
        ({"ab": 1}, r"pair ab is not"),
        # pairs and weights, but not as a mapping
        ([((1, 2), 1)], r"support must be a mapping, got list"),
        (None, r"support must be a mapping, got NoneType"),
    ],
    ids=[
        "reversed", "past-n", "below-1", "zero-value", "float", "bool", "one-float", "int", "str",
        "list", "none",
    ],
)
def test_constructor_takes_only_a_support(support, message):
    with pytest.raises(CharacterFormatError, match=message):
        Character(3, support)


# 4.0 == 4, but a witness built at n = 4.0 would not build
@pytest.mark.parametrize("n", [4.0, True, "4", None, 1])
def test_constructor_takes_only_an_int_n_of_two_or_more(n):
    with pytest.raises(CharacterFormatError, match=re.escape(f"need an int n >= 2, got n={n!r}")):
        Character(n, {(1, 2): 1})


@pytest.mark.parametrize("build", [dense, sparse])
@pytest.mark.parametrize("first, second", [((1, 2), (2, 1)), ((2, 1), (1, 2))])
def test_two_keys_for_one_pair_are_refused(build, first, second):
    # as the JSON parser refuses "1-2" beside "2-1"; the second key is named
    weights = {first: 1, second: 5, (1, 3): 0, (2, 3): 0}
    with pytest.raises(CharacterFormatError, match=re.escape(f"duplicate weight key {second}")):
        build(3, weights)


def test_dense_and_sparse_keep_only_nonzero_values():
    full = dense(3, {(2, 1): "1/2", (1, 3): 0, (3, 2): Fraction(0, 5)})
    part = sparse(3, {(1, 2): Fraction(1, 2), (2, 3): "0"})
    assert full.support == part.support == {(1, 2): Fraction(1, 2)}
    assert full == part and full.weight(1, 3) == 0 and full.weight(3, 1) == 0


def test_equal_characters_hash_equal():
    parsed = character_from_json('{"n": 3, "weights": {"1-2": "1", "1-3": "0", "2-3": "-1"}}')
    full = dense(3, {(1, 2): 1, (1, 3): "0", (3, 2): Fraction(-2, 2)})
    part = sparse(3, {(2, 3): "-1", (2, 1): Fraction(1)})
    assert parsed == full == part
    assert hash(parsed) == hash(full) == hash(part)
    assert {parsed, full, part} == {part} and len({parsed, full, part}) == 1
    other = sparse(3, {(1, 2): 1, (2, 3): 1})
    assert {parsed: "a", other: "b"}[full] == "a" and other not in {parsed}
    assert zero_character(4) in {sparse(4, {})} and zero_character(4) not in {zero_character(5)}


@pytest.mark.parametrize("build", [dense, sparse])
@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True])
def test_dense_and_sparse_refuse_inexact_values(build, value):
    weights = {(1, 2): 0, (3, 1): value, (2, 3): "1/3"}
    with pytest.raises(CharacterFormatError, match=re.escape(f"weight of pair (3, 1) is {value!r}")):
        build(3, weights)


@pytest.mark.parametrize("value", [0.5, 1.0, True, "1/2", None])
def test_constructor_takes_only_ints_and_fractions(value):
    with pytest.raises(CharacterFormatError, match=re.escape(f"pair (1, 3) has weight {value!r}")):
        Character(3, {(1, 2): 1, (1, 3): value})
    assert Character(3, {(1, 2): 1, (1, 3): Fraction(1, 2)}).weight(1, 3) == Fraction(1, 2)


def test_scale_refuses_a_float():
    chi = sparse(3, {(1, 2): 1})
    with pytest.raises(CharacterFormatError, match="scale factor is 0.1"):
        scale(chi, 0.1)
    assert scale(chi, "1/10").weight(1, 2) == Fraction(1, 10)


class TestSwingValue:
    def test_figure_triples(self, chi0):
        assert swing_value(chi0, (1, 2, 4)) == -1
        assert swing_value(chi0, (1, 2, 3)) == 0
        assert swing_value(chi0, (1, 2, 3, 4)) == -3

    def test_out_of_range(self, chi0):
        with pytest.raises(IndexError):
            swing_value(chi0, (1, 2, 5))

    @pytest.mark.parametrize("members", [5, ("a", 1)])
    def test_strands_that_are_not_ints_are_a_value_error(self, chi0, members):
        with pytest.raises(ValueError, match="strands must be ints"):
            swing_value(chi0, members)

    def test_any_iterable_of_strands(self, chi0):
        shapes = [(2, 3, 4), [4, 2, 3], {2, 3, 4}, range(2, 5), iter([3, 4, 2])]
        assert [swing_value(chi0, a) for a in shapes] == [-4] * 5

    def test_additive_over_sum(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_character(5, rng)
            b = random_character(5, rng)
            subset = (1, 3, 4, 5)
            total = add_characters(a, b)
            assert swing_value(total, subset) == swing_value(a, subset) + swing_value(
                b, subset
            )


class TestDeltaValue:
    def test_figure(self, chi0):
        assert delta_value(chi0) == -3

    def test_zero_character(self):
        assert delta_value(zero_character(5)) == 0

    def test_p3(self):
        chi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert delta_value(chi) == 0


class TestPermute:
    def test_identity(self, chi0):
        assert permute(chi0, (1, 2, 3, 4)) == chi0

    def test_transposition(self, chi0):
        swapped = permute(chi0, (2, 1, 3, 4))
        assert swapped.weight(1, 2) == 3
        assert swapped.weight(2, 3) == 2
        assert swapped.weight(2, 4) == -4
        assert swapped.weight(1, 3) == -5
        assert swapped.weight(1, 4) == 0
        assert swapped.weight(3, 4) == 1

    def test_group_action(self):
        rng = random.Random(11)
        for _ in range(50):
            chi = random_character(5, rng)
            sigma = random_perm(5, rng)
            tau = random_perm(5, rng)
            via_two = permute(permute(chi, sigma), tau)
            via_one = permute(chi, compose_perms(sigma, tau))
            assert via_two == via_one

    def test_a_tuple_a_list_and_a_range_give_one_character(self, chi0):
        perms = [(4, 3, 2, 1), [4, 3, 2, 1], range(4, 0, -1)]
        images = [permute(chi0, perm) for perm in perms]
        assert images[0] == images[1] == images[2] and images[0].weight(3, 4) == chi0.weight(1, 2)
        assert permute(chi0, range(1, 5)) == chi0

    def test_rejects_non_bijection(self, chi0):
        with pytest.raises(ValueError):
            permute(chi0, (1, 1, 3, 4))

    @pytest.mark.parametrize(
        "perm", [(True, 2, 3, 4), (1.0, 2, 3, 4), (2, 1, 3, 4.0), 5, None, "1234", (1, 2, 3, "4")]
    )
    def test_rejects_strands_that_are_not_ints(self, chi0, perm):
        with pytest.raises(ValueError, match="bijection on 1..4 of ints"):
            permute(chi0, perm)


class TestPullbackPhi:
    def test_index_transport(self):
        psi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        chi = pullback_phi(psi, (2, 4, 5), 5)
        assert chi.weight(2, 4) == 1
        assert chi.weight(2, 5) == 1
        assert chi.weight(4, 5) == -2
        assert len(chi.support) == 3

    def test_zero(self):
        assert pullback_phi(zero_character(3), (1, 2, 3), 6).is_zero()

    def test_delta_preserved(self):
        rng = random.Random(13)
        for _ in range(25):
            psi = random_character(4, rng)
            chi = pullback_phi(psi, (2, 3, 5, 6), 7)
            assert delta_value(chi) == delta_value(psi)

    def test_transport_consistency(self):
        rng = random.Random(17)
        for _ in range(25):
            psi = random_character(3, rng)
            a = (2, 4, 5)
            chi = pullback_phi(psi, a, 6)
            assert swing_value(chi, (2, 4)) == swing_value(psi, (1, 2))
            assert swing_value(chi, (4, 5)) == swing_value(psi, (2, 3))
            assert swing_value(chi, a) == swing_value(psi, (1, 2, 3))

    def test_size_mismatch(self):
        psi = zero_character(3)
        with pytest.raises(ValueError):
            pullback_phi(psi, (1, 2), 4)


class TestPullbackRho:
    def test_edge_dictionary(self):
        psi = sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        chi = pullback_rho(psi)
        ordered = [chi.weight(*e) for e in all_edges(4)]
        assert ordered == [1, 1, -2, -2, 1, 1]

    def test_zero(self):
        assert pullback_rho(zero_character(3)).is_zero()

    def test_delta_doubles(self):
        rng = random.Random(19)
        for _ in range(25):
            psi = random_character(3, rng)
            assert delta_value(pullback_rho(psi)) == 2 * delta_value(psi)


class TestSwingSet:
    def test_sorted_and_validated(self):
        assert swing_set([4, 1, 2], 5) == (1, 2, 4)
        with pytest.raises(ValueError):
            swing_set([3], 5)
        with pytest.raises(ValueError):
            swing_set([3, 3], 5)
        with pytest.raises(IndexError):
            swing_set([1, 9], 5)

    @pytest.mark.parametrize(
        "members",
        [(1.0, 2.0, 3.0, 4.0), (True, 2.0, 3, 4), (1, 2.0), (True, 2), 5, None, ("a", 1), [[1, 2]]],
    )
    def test_strands_that_are_not_ints_are_refused(self, members):
        # 1.0 == 1 and True == 1, so range and distinctness alone pass them
        with pytest.raises(ValueError, match="strands must be ints"):
            swing_set(members, 4)


class TestJson:
    def test_round_trip(self, chi0):
        text = json.dumps(character_to_json_dict(chi0))
        assert character_from_json(text) == chi0

    def test_missing_key_is_error(self):
        data = character_to_json_dict(zero_character(3))
        del data["weights"]["1-3"]
        with pytest.raises(CharacterFormatError, match="1-3"):
            character_from_json_dict(data)

    def test_rational_strings(self):
        data = {"n": 2, "weights": {"1-2": "-7/3"}}
        assert character_from_json_dict(data).weight(1, 2) == Fraction(-7, 3)

    def test_bad_rational(self):
        data = {"n": 2, "weights": {"1-2": "x"}}
        with pytest.raises(CharacterFormatError, match="1-2"):
            character_from_json_dict(data)

    def test_bad_key(self):
        data = {"n": 2, "weights": {"12": "1"}}
        with pytest.raises(CharacterFormatError):
            character_from_json_dict(data)

    def test_integer_weights(self):
        data = {"n": 2, "weights": {"1-2": -4}}
        assert character_from_json_dict(data).weight(1, 2) == -4

    def test_float_rejected(self):
        # meant as a P3 circle point, but 0.1 + 0.2 - 0.3 != 0 in binary
        text = '{"n": 3, "weights": {"1-2": "0.1", "1-3": 0.2, "2-3": "-0.3"}}'
        with pytest.raises(CharacterFormatError, match="'1-3'.*string or an integer"):
            character_from_json(text)
        exact = '{"n": 3, "weights": {"1-2": "0.1", "1-3": "0.2", "2-3": "-0.3"}}'
        assert delta_value(character_from_json(exact)) == 0

    def test_bool_rejected(self):
        with pytest.raises(CharacterFormatError, match="'1-2'"):
            character_from_json('{"n": 2, "weights": {"1-2": true}}')

    def test_exponent_notation_accepted(self):
        data = {"n": 3, "weights": {"1-2": "1e3", "1-3": "2.5E-2", "2-3": "-1e-4300"}}
        chi = character_from_json_dict(data)
        assert chi.weight(1, 2) == 1000
        assert chi.weight(1, 3) == Fraction(1, 40)
        assert chi.weight(2, 3) == Fraction(-1, 10**4300)

    @pytest.mark.parametrize(
        "val", ["1e4301", "1E-4301", "2.5e+99999", "-1e10000000", "1e1_0000000"]
    )
    def test_exponent_bound(self, val):
        data = {"n": 3, "weights": {"1-2": "1", "1-3": val, "2-3": "0"}}
        with pytest.raises(CharacterFormatError, match="'1-3'.*exponent|exponent.*'1-3'"):
            character_from_json_dict(data)

    @pytest.mark.parametrize("bad", ["x", "1e5000", "1/0"])
    def test_repeated_bad_value_names_first_key(self, bad):
        # the error names the first key in input order, not the least pair
        weights = {"2-3": "1", "1-3": bad, "1-2": bad, "1-4": "0"}
        weights.update({"2-4": bad, "3-4": "0"})
        with pytest.raises(CharacterFormatError) as exc:
            character_from_json_dict({"n": 4, "weights": weights})
        message = str(exc.value)
        assert "'1-3'" in message
        assert "'1-2'" not in message and "'2-4'" not in message

    def test_parsed_weights_match_fraction_per_key(self):
        # raw values repeat heavily and mix strings with integers, including
        # different spellings of one rational
        pool = [0, 1, -1, 3, "0", "1", "-1", "1/1", "2/2", "-0", "+3", " 7 ",
                "2/3", "-2/3", "0.5", "1e2", "2.5E-2", "-3.75e1", "10/4"]
        rng = random.Random(2024)
        checked = 0
        for _ in range(600):
            n = rng.randint(3, 12)
            keys = [f"{i}-{j}" for i, j in all_edges(n)]
            rng.shuffle(keys)  # input order need not be pair order
            raw = {key: rng.choice(pool[: rng.randint(2, len(pool))]) for key in keys}
            chi = character_from_json_dict({"n": n, "weights": raw})
            by_raw = {}
            for key, val in raw.items():
                i, j = map(int, key.split("-"))
                got = chi.weight(i, j)
                assert type(got) is Fraction and got == Fraction(val), (key, val)
                if got:  # the support's values are shared per raw value
                    assert by_raw.setdefault((type(val), val), got) is got
            checked += 1
        assert checked >= 500

    @pytest.mark.parametrize("key", ["2-1", "01-2", " 1-2"])
    def test_other_spellings_of_a_pair_in_a_full_count(self, key):
        chi = character_from_json_dict({"n": 3, "weights": {key: "5", "1-3": "1", "2-3": "0"}})
        assert chi.support == {(1, 2): 5, (1, 3): 1}

    @pytest.mark.parametrize("first, second", [("1-2", "2-1"), ("2-1", "1-2")])
    def test_two_spellings_of_one_pair_are_duplicates(self, first, second):
        data = {"n": 3, "weights": {first: "1", second: "1", "1-3": "0"}}
        with pytest.raises(CharacterFormatError, match=f"duplicate weight key '{second}'"):
            character_from_json_dict(data)

    @pytest.mark.parametrize(
        "key, message", [("x", "bad weight key 'x'"), ("1-4", "'1-4' out of range for n=3")]
    )
    def test_bad_key_in_a_full_count(self, key, message):
        # the bad key is reported, not the bad value after it
        data = {"n": 3, "weights": {"1-3": "1", key: "1", "1-2": "bad"}}
        with pytest.raises(CharacterFormatError, match=message):
            character_from_json_dict(data)

    def test_missing_keys_capped(self):
        data = {"n": 40, "weights": {"1-2": "1"}}
        with pytest.raises(CharacterFormatError) as exc:
            character_from_json_dict(data)
        message = str(exc.value)
        assert "779 of 780" in message and message.endswith(", ...")
        assert message.count("'") == 2 * 10


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.fractions(max_denominator=20)), max_size=15
    )
)
def test_character_arithmetic_is_exact(entries):
    # sums of weights over any index set stay in lowest-terms rationals
    chi = zero_character(6)
    for k, v in entries:
        edge_key = ((k % 5) + 1, 6)
        chi = add_characters(chi, sparse(6, {edge_key: v}))
    total = sum((v for _, v in entries), Fraction(0))
    assert delta_value(chi) == total


# -- the plain-weight parse and the integer sum ----------------------------

# pieces of weight spellings that the plain path must not misread: signs,
# whitespace, underscores, non-ASCII digits, exponents and decimals
WEIGHT_PIECES = ["0", "1", "7", "-", "+", "/", ".", "e", "E", "_", " ", "\t",
                 "²", "٣", "１", "x", "3"]


@pytest.mark.parametrize(
    "digits",
    ["7" * 5000, "-1/" + "3" * 5000, "1" * 5000 + "/7"],
    ids=["integer", "denominator", "numerator"],
)
def test_too_many_digits_is_a_bad_rational(digits, tmp_path, capsys):
    # int() refuses more digits than Python's limit with ValueError, as
    # Fraction's parser does; both are a bad rational, exit 2, not exit 3
    text = json.dumps({"n": 2, "weights": {"1-2": digits}})
    with pytest.raises(CharacterFormatError) as exc:
        character_from_json(text)
    assert str(exc.value) == f"bad rational {digits!r} for key '1-2'"
    path = tmp_path / "digits.json"
    path.write_text(text)
    assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad rational {digits!r} for key '1-2'\n"


@pytest.mark.parametrize(
    "text",
    ['{"n": 2, "weights": {"1-2": %s}}', '{"n": %s, "weights": {}}', "%s"],
    ids=["weight", "n", "document"],
)
def test_json_integer_of_too_many_digits_is_invalid_json(text, tmp_path, capsys):
    # json.loads refuses it with a ValueError that is not a decode error;
    # it is input, exit 2, not an internal error
    text = text % ("7" * 5000)
    with pytest.raises(CharacterFormatError, match="^invalid JSON: .*4300 digits"):
        character_from_json(text)
    path = tmp_path / "digits.json"
    path.write_text(text)
    assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ") and captured.err.count("\n") == 1


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(WEIGHT_PIECES), max_size=9).map("".join),
        st.text(max_size=8),
        st.fractions().map(str),
        st.integers().map(str),
    )
)
@example("²")
@example("١٢/٣")
@example(" 12 ")
@example("1_000/3")
@example("1/+2")
@example("+-1")
@example("-0")
@example("-0/5")
@example("007/014")
@example("1/0")
@example("1e3")
@example("-2.5E-2")
@example("1/")
@example("/2")
@example("")
def test_parse_weight_agrees_with_fraction(text):
    try:
        got = _parse_weight("1-2", text)
    except CharacterFormatError as exc:
        if "exponent" in str(exc):  # refused before Fraction could expand it
            assert "e" in text.lower()
            return
        assert str(exc) == f"bad rational {text!r} for key '1-2'"
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
        return
    want = Fraction(text)
    assert type(got) is Fraction and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def _reference_sum(values):
    return sum(values, Fraction(0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**4), max_size=30))
@example([])
@example([Fraction(-3, 7)])
@example([Fraction(1, 2), Fraction(1, 2)])
@example([Fraction(1, 3), Fraction(-1, 3), Fraction(2, 6)])
def test_pair_sum_is_the_fraction_sum(values):
    def pair_sum(vs):
        x, d = _pair_sum((v.numerator, v.denominator) for v in vs)
        assert type(x) is int and type(d) is int and d > 0
        return Fraction(x, d)

    assert pair_sum(values) == _reference_sum(values)
    # ints too, as a support may hold them, and a plain zero pair
    assert _pair_sum([(0, 1)]) == (0, 1)
    assert pair_sum([*values, 0, 5]) == _reference_sum(values) + 5


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def test_pair_sum_over_distinct_prime_denominators():
    # n = 64 with a distinct prime denominator on each of the 2,016 pairs:
    # the lcm has about 25,000 bits, and the pairwise merge keeps the time
    # within a small factor of Fraction's own sum (it is faster in fact)
    import timeit

    rng = random.Random(64)
    pairs = all_edges(64)
    values = [Fraction(rng.choice([-1, 1]) * rng.randrange(1, p), p)
              for p in _primes(len(pairs))]
    assert len(set(v.denominator for v in values)) == 2016
    want = _reference_sum(values)
    ratios = [(v.numerator, v.denominator) for v in values]
    assert Fraction(*_pair_sum(ratios)) == want
    chi = Character(64, dict(zip(pairs, values)))
    assert delta_value(chi) == want
    new = min(timeit.repeat(lambda: _pair_sum(ratios), number=1, repeat=5))
    old = min(timeit.repeat(lambda: _reference_sum(values), number=1, repeat=5))
    assert new < 3 * old + 0.05, (new, old)


def test_certify_path_over_distinct_prime_denominators(monkeypatch):
    # n = 64 with Delta = 0: +-1/p on consecutive pairs, a distinct prime p
    # to each two pairs, so every sum meets up to 1,008 denominators.  The
    # dense character is a disjoint triple; the star (center 1) makes the
    # witness sum rows, and one flipped sign makes Delta nonzero.  Every
    # case must cost within 3x the same support spelled +-k/q, q one prime
    # above every k, which has as many distinct spellings to parse; the
    # weight memo is off, so neither run reads spellings the other kept.
    import timeit

    from braidsigma.circles import locate_circle
    from braidsigma.classify import classify, verify_certificate
    from braidsigma.witness import build_witness_for, verify_witness

    monkeypatch.setattr(characters, "_weight_memo", {})
    monkeypatch.setattr(characters, "_WEIGHT_MEMO_SIZE", 0)
    n = 64
    dense = all_edges(n)
    star = [(1, j) for j in range(2, n)]
    primes = _primes(len(dense) // 2)

    def text(edges, spell, flip=False):
        signs = [(-1) ** k for k in range(len(edges))]
        signs[0] *= -1 if flip else 1
        spelled = {e: spell(s, k // 2) for k, (e, s) in enumerate(zip(edges, signs))}
        return json.dumps({"n": n, "weights": {f"{i}-{j}": spelled.get((i, j), "0")
                                               for i, j in all_edges(n)}})

    def certify(text):
        chi = character_from_json(text)
        cls = classify(chi)
        assert verify_certificate(cls, chi) and locate_circle(chi) is None
        assert verify_witness(build_witness_for(cls, chi), chi).ok
        return cls.certificate.kind

    for edges, flip, kind in ((dense, False, "disjoint_triple"), (star, False, "star"),
                              (dense, True, "zero_sum")):
        distinct = text(edges, lambda s, k: f"{s}/{primes[k]}", flip)
        single = text(edges, lambda s, k: f"{s * (k + 1)}/{primes[-1]}", flip)
        assert certify(distinct) == certify(single) == kind
        new = min(timeit.repeat(lambda: certify(distinct), number=1, repeat=5))
        old = min(timeit.repeat(lambda: certify(single), number=1, repeat=5))
        assert new < 3 * old, (kind, new, old)


class TestParserBuiltCharacter:
    def test_equals_the_checked_construction(self):
        rng = random.Random(11)
        for n in (2, 3, 5, 9, 16):
            chi = random_character(n, rng)
            parsed = character_from_json(json.dumps(character_to_json_dict(chi)))
            checked = Character(n, dict(parsed.support))
            assert parsed == checked == chi
            assert repr(parsed) == repr(checked)
            assert delta_value(parsed) == delta_value(checked)

    def test_parser_does_not_run_the_constructor_check(self, monkeypatch):
        def refuse(self, n, support):
            raise AssertionError("the parser re-ran the pair check")

        monkeypatch.setattr(Character, "__init__", refuse)
        chi = character_from_json('{"n": 3, "weights": {"1-2": "1", "2-3": "-1", "1-3": "0"}}')
        assert chi.n == 3 and chi.support == {(1, 2): 1, (2, 3): -1}


# -- the parser on arbitrary input -------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
# keys and values near the valid ones, so that most inputs reach the loop
# over the weights and fail (or pass) there
WEIGHT_KEYS = st.one_of(
    st.builds("{}-{}".format, st.integers(0, 6), st.integers(0, 6)),
    st.sampled_from(["01-2", " 1-2", "1-2-3", "1-", "-1", "x", ""]),
    st.text(max_size=4),
)
WEIGHT_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "-0", "1", "2/3", "1/0", "1e2", "1e9999", "x", " 4 "]),
    st.lists(st.sampled_from(WEIGHT_PIECES), max_size=6).map("".join),
    JSON_VALUES,
)
CHARACTER_LIKE = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(-1, 6), JSON_VALUES),
        "weights": st.one_of(st.dictionaries(WEIGHT_KEYS, WEIGHT_VALUES, max_size=16), JSON_VALUES),
    }
)


def near_valid(n):
    """Every pair of 1..n once, spelled i-j or j-i with a plain value, or
    with its key or its value drawn from those above instead."""

    def entry(i, j):
        key = st.sampled_from([f"{i}-{j}", f"{j}-{i}"])
        value = st.integers(-2, 2) | st.sampled_from(["0", "-0", "1", "-2/3", "1e2"])
        odd = st.tuples(key, WEIGHT_VALUES) | st.tuples(WEIGHT_KEYS, value)
        return st.tuples(key, value) | odd

    entries = st.tuples(*(entry(i, j) for i, j in all_edges(n)))
    return st.fixed_dictionaries({"n": st.just(n), "weights": entries.map(dict)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.integers(2, 4).flatmap(near_valid), CHARACTER_LIKE, JSON_VALUES))
@example({"n": 3, "weights": {"1-2": "1", "2-1": "1", "1-3": "x"}})
@example({"n": 3, "weights": {"2-1": "0", "1-3": "0", "2-3": "-0"}})
@example({"n": 3, "weights": {"1-2": "1", "1-3": "0", "2-3": "-1", "3-1": "2"}})
@example({"n": 10**9, "weights": {"1-2": "1"}})
def test_parser_returns_a_character_or_refuses_the_input(data):
    try:
        chi = character_from_json_dict(data)
    except CharacterFormatError:
        return
    assert type(chi) is Character
    # what the parser built passes the constructor's own check
    assert Character(chi.n, dict(chi.support)) == chi


def through_loads(text):
    """The reference reader: ``json.loads``, then the dict reader, with a
    JSON error worded as ``character_from_json`` words it."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CharacterFormatError(f"invalid JSON: {exc}") from exc
    return character_from_json_dict(data)


def text_outcome(parse, text):
    """The character, its Delta and repr, or the type and message of what
    ``parse`` raised for ``text``."""
    try:
        chi = parse(text)
    except Exception as exc:
        return (type(exc), str(exc))
    return (chi, delta_value(chi), repr(chi))


JSON_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=3)
# whitespace to Python's str methods, or a BOM, but not to RFC 8259
OTHER_SPACE = st.text(st.sampled_from(" \t\n\x0b\x0c\xa0\u2028\ufeff"), min_size=1, max_size=3)
JUNK = st.sampled_from(["x", "{}", "[", "]", "}", ",", "1", '"', "\x00", "//"]) | st.text(max_size=3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(2, 4).flatmap(near_valid), CHARACTER_LIKE, JSON_VALUES).map(json.dumps),
    JSON_SPACE | OTHER_SPACE,
    JSON_SPACE | OTHER_SPACE | JUNK,
)
@example('{"n": 2, "weights": {"1-2": "1"}}', "", " \r\n\t")
@example('{"n": 2, "weights": {"1-2": "1"}}', "\ufeff", "")
@example('{"n": 2, "weights": {"1-2": "1"}}', "\x0c", "")
@example('{"n": 2, "weights": {"1-2": "1"}}', "", " x")
@example('{"n": 2, "weights": {"1-2": "1"}}', "", "\x0b")
@example("[" * 100_000, "", "")
@example('{"n": 2, "weights": {"1-2": %s}}' % ("7" * 5000), "", "")
def test_the_json_entry_reads_what_json_loads_reads(document, before, after):
    text = before + document + after
    assert text_outcome(character_from_json, text) == text_outcome(through_loads, text)


@pytest.mark.parametrize(
    "text",
    [b'{"n": 2, "weights": {"1-2": "1"}}', bytearray(b'{"n": 2, "weights": {}}'), None, 12],
    ids=["bytes", "bytearray", "None", "int"],
)
def test_other_types_go_to_json_loads(text):
    assert text_outcome(character_from_json, text) == text_outcome(through_loads, text)


def respell(key, rng):
    """``key`` as it is, or spelled j-i or 0i-j: the same pair, though not
    the canonical key."""
    i, j = key.split("-")
    return rng.choice([key, f"{j}-{i}", f"0{i}-{j}"])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(
                    st.integers(-3, 3),
                    st.fractions(max_denominator=6).map(str),
                    st.sampled_from(["0", "-0", "0/4", "1e2", "-2.5E-1"]),
                ),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
            # at most one weight the parser refuses, at a drawn place
            st.none() | st.tuples(st.integers(0, 20), st.sampled_from(["x", "1/0", "1e9999", 1.5, True])),
            st.randoms(use_true_random=False),
        )
    )
)
def test_parser_keeps_exactly_the_nonzero_pairs(case):
    n, values, bad, rng = case
    pairs = all_edges(n)
    values = list(values)
    if bad is not None:
        place = bad[0] % len(values)
        values[place] = bad[1]
    keys = [f"{i}-{j}" for i, j in pairs]
    want = parse_outcome({"n": n, "weights": dict(zip(keys, values))})
    if bad is None:
        exact = {e: Fraction(str(v)) for e, v in zip(pairs, values)}
        chi = want[0]
        assert chi.support == {e: v for e, v in exact.items() if v != 0}
        for (i, j), v in exact.items():
            assert chi.weight(i, j) == v and chi.weight(j, i) == v
    else:
        assert want[0] == "refused" and repr(keys[place]) in want[1]
    # the same weights in another key order, or with some keys spelled j-i
    # or 0i-j, go through the reader that checks each key: the same
    # character, or the same refusal naming the key as that input spells it
    order = list(range(len(pairs)))
    rng.shuffle(order)
    spelled = [respell(key, rng) for key in keys]
    for kept_order, names in ((False, keys), (True, spelled), (False, spelled)):
        ks = range(len(pairs)) if kept_order else order
        got = parse_outcome({"n": n, "weights": {names[k]: values[k] for k in ks}})
        if bad is not None:
            assert got == ("refused", want[1].replace(repr(keys[place]), repr(names[place])))
            continue
        assert got[:2] == want[:2]
        # the repr lists the support in the input's order
        chi = got[0] if kept_order else Character(n, dict(sorted(got[0].support.items())))
        assert repr(chi) == want[2]


# -- the process-wide memo of weight spellings -------------------------------


class Shouted(str):
    """A str subclass whose lowercase form has an exponent too large, so
    the parser refuses it whatever its text."""

    def lower(self):
        return "1e99999"


# good and bad spellings, a JSON integer equal to a good one, and types the
# parser refuses before it reads a value
MEMO_POOL = ["0", "-0", "1", "2/3", "-2/3", "007/014", " 4 ", "1.5", "٣", "1e2", "1" * 33,
             "1/0", "x", "1e9999", "", 1, -2, True, None, 2.5, Shouted("1")]


def memo_character(n):
    """A character of P_n whose weights are drawn from MEMO_POOL."""
    keys = [f"{i}-{j}" for i, j in all_edges(n)]
    values = st.lists(st.sampled_from(MEMO_POOL), min_size=len(keys), max_size=len(keys))
    return values.map(lambda drawn: {"n": n, "weights": dict(zip(keys, drawn))})


def parse_outcome(data):
    """What the parser gives for ``data``: the character, its Delta and
    repr, or the message it refuses the input with."""
    try:
        chi = character_from_json_dict(data)
    except CharacterFormatError as exc:
        return ("refused", str(exc))
    return (chi, delta_value(chi), repr(chi))


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test; the process's own is put back after."""
    monkeypatch.setattr(characters, "_weight_memo", {})
    return characters._weight_memo


class TestWeightMemo:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 4).flatmap(memo_character), min_size=1, max_size=8))
    def test_the_memo_is_transparent(self, stream):
        # the stream shares spellings, bad ones too; each character must come
        # out the same with the memo warmed by those before it and from empty
        characters._weight_memo.clear()
        warm = [parse_outcome(data) for data in stream]
        for data, outcome in zip(stream, warm):
            characters._weight_memo.clear()
            assert parse_outcome(data) == outcome
        assert all(type(k) is str for k in characters._weight_memo)

    @pytest.mark.parametrize("bad", ["1/0", "x", "1e9999", ""])
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_a_bad_spelling_never_enters_the_memo(self, memo, bad, bad_first):
        good = [("1-3", "2/3"), ("2-3", "-1")]
        items = [("1-2", bad), *good] if bad_first else [*good, ("1-2", bad)]
        for _ in range(2):
            with pytest.raises(CharacterFormatError, match="key '1-2'"):
                character_from_json_dict({"n": 3, "weights": dict(items)})
        assert bad not in memo
        # the same spelling under another key names that key
        with pytest.raises(CharacterFormatError, match="key '2-3'"):
            character_from_json_dict({"n": 3, "weights": {"1-2": "1", "1-3": "1", "2-3": bad}})
        assert bad not in memo and set(memo) <= {"2/3", "-1", "1"}

    def test_subclasses_and_integers_take_the_parser(self, memo):
        warm = character_from_json_dict({"n": 2, "weights": {"1-2": "1"}})
        assert warm.weight(1, 2) == 1 and list(memo) == ["1"]
        # equal to "1" and of equal hash, but its own methods refuse it
        with pytest.raises(CharacterFormatError, match="exponent of weight for key '1-2'"):
            character_from_json_dict({"n": 2, "weights": {"1-2": Shouted("1")}})
        chi = character_from_json_dict({"n": 3, "weights": {"1-2": 1, "1-3": "1", "2-3": -2}})
        assert chi.support == {(1, 2): 1, (1, 3): 1, (2, 3): -2}
        assert all(type(v) is Fraction for v in chi.support.values())
        assert list(memo) == ["1"] and all(type(k) is str for k in memo)

    def test_the_memo_stays_at_its_bound(self, memo):
        size = characters._WEIGHT_MEMO_SIZE
        for k in range(size + 20):
            chi = character_from_json_dict({"n": 2, "weights": {"1-2": f"{k}/7"}})
            assert chi.weight(1, 2) == Fraction(k, 7)
            assert len(memo) == min(k + 1, size)
        assert f"{size}/7" not in memo and f"{size - 1}/7" in memo

    def test_a_long_spelling_or_an_exponent_is_parsed_but_not_kept(self, memo):
        limit = characters._WEIGHT_MEMO_LENGTH
        kept, long, exponent = "1" * limit, "1" * (limit + 1), "1e30"
        weights = {"1-2": kept, "1-3": long, "2-3": exponent}
        chi = character_from_json_dict({"n": 3, "weights": weights})
        assert chi.support == {(1, 2): int(kept), (1, 3): int(long), (2, 3): 10**30}
        assert list(memo) == [kept]

    # spellings the memo does not keep: an exponent, one character past its
    # length, a JSON integer; each is parsed once per character all the same
    @pytest.mark.parametrize("spelling", ["1e4300", "1" * 33, 7])
    def test_a_spelling_not_kept_is_parsed_once_per_character(self, memo, monkeypatch, spelling):
        calls = []
        parse = characters._parse_weight
        monkeypatch.setattr(characters, "_parse_weight", lambda k, v: calls.append(k) or parse(k, v))
        n = 64
        keys = [f"{i}-{j}" for i, j in all_edges(n)]
        chi = character_from_json_dict({"n": n, "weights": dict.fromkeys(keys, spelling)})
        assert calls == ["1-2"] and memo == {}
        value = Fraction(spelling) if isinstance(spelling, str) else spelling
        assert set(chi.support.values()) == {value} and len(chi.support) == len(keys)

    def test_the_full_memo_is_within_its_stated_worst_case(self, memo):
        # distinct spellings of four-byte digits, with about as many digits in
        # their values as characters: first some too long to keep, then twice
        # as many as the memo keeps of the longest kept; the module
        # docstring's bound also counts a cached UTF-8 copy of each spelling,
        # which none has here
        digits = str.maketrans("0123456789", "".join(chr(0x1D7F6 + d) for d in range(10)))
        size, limit = characters._WEIGHT_MEMO_SIZE, characters._WEIGHT_MEMO_LENGTH
        for length, count in ((3 * limit, size), (limit, 2 * size)):
            for k in range(count):
                text = "9" * (length - 20) + f"{k:04d}" + "." + "9" * 15
                spelling = text.translate(digits)
                character_from_json_dict({"n": 2, "weights": {"1-2": spelling}})
        assert len(memo) == size and all(len(key) == limit for key in memo)
        held = sys.getsizeof(memo) + sum(
            sys.getsizeof(key) + sys.getsizeof(entry) + sys.getsizeof(entry[0])
            + sys.getsizeof(entry[0].numerator) + sys.getsizeof(entry[0].denominator)
            + sys.getsizeof(entry[1])  # the pair's integers are the Fraction's own
            for key, entry in memo.items()
        )
        assert all(
            entry[1][0] is entry[0].numerator and entry[1][1] is entry[0].denominator
            for entry in memo.values()
        )
        assert held <= 623_752  # the module docstring's bound, under 1 MB
