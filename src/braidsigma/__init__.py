"""Exact classifier for the BNS invariant of the pure braid groups."""

from .characters import (
    Character,
    CharacterFormatError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
    delta_value,
    permute,
    swing_value,
)
from .chargraph import build_kchi, shape_classify
from .circles import CircleId, locate_circle
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
    "classify",
    "delta_value",
    "locate_circle",
    "permute",
    "shape_classify",
    "swing_value",
    "verify_certificate",
    "verify_witness",
]
