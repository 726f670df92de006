from braidsigma.planar import planar_words, verify_planar_presentation
from braidsigma.words import braid_aut, standard_pure_word
from conftest import is_pure


class TestCommittedWordList:
    def test_all_nine_relations(self):
        report = verify_planar_presentation(planar_words())
        assert all(report.values()), report

    def test_labels_complete(self):
        words = planar_words()
        assert sorted(words) == list("abcdef")

    def test_words_spelled_in_artin_letters(self):
        # k is sigma_k and -k its inverse; e is A_24 conjugated by sigma_2^2
        assert {label: w.letters for label, w in planar_words().items()} == {
            "a": (1, 1),
            "b": (2, 1, 1, -2),
            "c": (2, 2),
            "d": (3, 3),
            "e": (2, 2, 3, 2, 2, -3, -2, -2),
            "f": (3, 2, 1, 1, -2, -3),
        }

    def test_words_project_to_expected_pairs(self):
        # each planar word is a pure braid conjugate to its standard pair
        # generator; in the abelianization this shows as the aut acting on
        # the same basis letters (permutation part trivial)
        for label, w in planar_words().items():
            assert is_pure(w)

    def test_standard_candidates_satisfy_partial_relations(self):
        words = planar_words()
        std = {
            "a": standard_pure_word(1, 2, 4),
            "b": standard_pure_word(1, 3, 4),
            "c": standard_pure_word(2, 3, 4),
            "d": standard_pure_word(3, 4, 4),
        }
        for label in "abcd":
            assert braid_aut(words[label]) == braid_aut(std[label])
        report = verify_planar_presentation(
            {**std, "e": standard_pure_word(2, 4, 4), "f": standard_pure_word(1, 4, 4)}
        )
        assert report["abc=bca"] and report["bca=cab"] and report["ad=da"]

    def test_negative_control(self):
        # substituting the wrong word for e breaks its triangle relations
        words = dict(planar_words())
        words["e"] = standard_pure_word(1, 4, 4)
        report = verify_planar_presentation(words)
        assert not (report["cde=dec"] and report["dec=ecd"])

