"""Exact classifier for the BNS invariant of the pure braid groups."""

from .characters import (
    Character,
    CharacterFormatError,
    InputError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
    delta_value,
    permute,
)
from .chargraph import build_kchi, shape_classify
from .circles import CircleId, locate_circle
from .classify import Classification, classify, verify_certificate
from .witness import build_witness_for, verify_witness

__all__ = [
    "Character",
    "CharacterFormatError",
    "InputError",
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
    "verify_certificate",
    "verify_witness",
]
