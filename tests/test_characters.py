import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidsigma.characters import (
    Character,
    CharacterFormatError,
    ZeroCharacterError,
    all_edges,
    character_from_json,
    character_from_json_dict,
    character_to_json_dict,
    compose_perms,
    delta_value,
    normalize,
    permute,
    pullback_phi,
    pullback_rho,
    swing_set,
    swing_value,
)
from conftest import add_characters, random_character, random_perm


class TestSwingValue:
    def test_figure_triples(self, chi0):
        assert swing_value(chi0, (1, 2, 4)) == -1
        assert swing_value(chi0, (1, 2, 3)) == 0
        assert swing_value(chi0, (1, 2, 3, 4)) == -3

    def test_out_of_range(self, chi0):
        with pytest.raises(IndexError):
            swing_value(chi0, (1, 2, 5))

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
        assert delta_value(Character.zero(5)) == 0

    def test_p3(self):
        chi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        assert delta_value(chi) == 0


class TestNormalize:
    def test_clears_denominators(self):
        chi = Character.sparse(4, {(1, 2): Fraction(2, 3), (1, 3): Fraction(4, 3)})
        canon = normalize(chi).character
        assert canon.weight(1, 2) == 1
        assert canon.weight(1, 3) == 2

    def test_sign_preserved_on_p2(self):
        chi = Character.sparse(2, {(1, 2): -5})
        assert normalize(chi).character.weight(1, 2) == -1

    def test_dilation_equivalence(self):
        rng = random.Random(3)
        for _ in range(25):
            chi = random_character(4, rng)
            if chi.is_zero():
                continue
            assert normalize(chi) == normalize(chi.scale(7))
            assert normalize(chi) == normalize(chi.scale(Fraction(3, 11)))
            assert normalize(chi) != normalize(chi.scale(-1)) or chi.is_zero()

    def test_idempotent(self):
        chi = Character.sparse(3, {(1, 2): Fraction(6, 4), (2, 3): -9})
        once = normalize(chi)
        assert normalize(once.character) == once

    def test_zero_rejected(self):
        with pytest.raises(ZeroCharacterError):
            normalize(Character.zero(3))


class TestPermute:
    def test_identity(self, chi0):
        assert permute(chi0, (1, 2, 3, 4)).weights == chi0.weights

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
            assert via_two.weights == via_one.weights

    def test_rejects_non_bijection(self, chi0):
        with pytest.raises(ValueError):
            permute(chi0, (1, 1, 3, 4))


class TestPullbackPhi:
    def test_index_transport(self):
        psi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        chi = pullback_phi(psi, (2, 4, 5), 5)
        assert chi.weight(2, 4) == 1
        assert chi.weight(2, 5) == 1
        assert chi.weight(4, 5) == -2
        assert sum(1 for v in chi.weights.values() if v != 0) == 3

    def test_zero(self):
        assert pullback_phi(Character.zero(3), (1, 2, 3), 6).is_zero()

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
        psi = Character.zero(3)
        with pytest.raises(ValueError):
            pullback_phi(psi, (1, 2), 4)


class TestPullbackRho:
    def test_edge_dictionary(self):
        psi = Character.sparse(3, {(1, 2): 1, (1, 3): 1, (2, 3): -2})
        chi = pullback_rho(psi)
        ordered = [chi.weight(*e) for e in all_edges(4)]
        assert ordered == [1, 1, -2, -2, 1, 1]

    def test_zero(self):
        assert pullback_rho(Character.zero(3)).is_zero()

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


class TestJson:
    def test_round_trip(self, chi0):
        text = json.dumps(character_to_json_dict(chi0))
        assert character_from_json(text).weights == chi0.weights

    def test_missing_key_is_error(self):
        data = character_to_json_dict(Character.zero(3))
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
    chi = Character.zero(6)
    for k, v in entries:
        edge_key = ((k % 5) + 1, 6)
        chi = add_characters(chi, Character.sparse(6, {edge_key: v}))
    total = sum((v for _, v in entries), Fraction(0))
    assert delta_value(chi) == total
