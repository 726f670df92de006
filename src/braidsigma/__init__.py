"""Exact classifier for the BNS invariant of the pure braid groups."""

from .characters import (
    Character,
    CharacterFormatError,
    InternalError,
    ProjectivePoint,
    ZeroCharacterError,
    character_from_json,
    character_to_json_dict,
    delta_value,
    normalize,
    permute,
    pullback_phi,
    pullback_rho,
    swing_value,
)
from .chargraph import build_kchi, oracle_star_or_small, shape_classify
from .circles import CircleId, enumerate_circles, locate_circle, sample_circle
from .classify import Classification, classify, verify_certificate
from .witness import build_witness, build_witness_for, verify_witness

__all__ = [
    "Character",
    "CharacterFormatError",
    "ProjectivePoint",
    "ZeroCharacterError",
    "CircleId",
    "Classification",
    "InternalError",
    "build_kchi",
    "build_witness",
    "build_witness_for",
    "character_from_json",
    "character_to_json_dict",
    "classify",
    "delta_value",
    "enumerate_circles",
    "locate_circle",
    "normalize",
    "oracle_star_or_small",
    "permute",
    "pullback_phi",
    "pullback_rho",
    "sample_circle",
    "shape_classify",
    "swing_value",
    "verify_certificate",
    "verify_witness",
]
