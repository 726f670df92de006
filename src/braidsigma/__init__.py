"""Exact classifier for the BNS invariant of the pure braid groups."""

from .characters import (
    Character,
    CharacterFormatError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
    character_to_json_dict,
    delta_value,
    permute,
    swing_value,
)
from .chargraph import build_kchi, oracle_star_or_small, shape_classify
from .circles import CircleId, enumerate_circles, locate_circle, sample_circle
from .classify import Classification, classify, verify_certificate
from .witness import build_witness_for, verify_witness

__all__ = [
    "Character",
    "CharacterFormatError",
    "ZeroCharacterError",
    "CircleId",
    "Classification",
    "InternalError",
    "build_kchi",
    "build_witness_for",
    "character_from_json",
    "character_to_json_dict",
    "classify",
    "delta_value",
    "enumerate_circles",
    "locate_circle",
    "oracle_star_or_small",
    "permute",
    "sample_circle",
    "shape_classify",
    "swing_value",
    "verify_certificate",
    "verify_witness",
]
