"""Canonical feature registry: every extractor output, registered once.

Vector-valued entries (kind='contour') come either from short-time frames
(f0, energies, formants) or from 500 ms analysis blocks (perturbation,
noise, high-order and entropy measures evaluated per block), and are later
reduced to five summary statistics each; scalars pass through. This
reconstruction yields ~370 columns per vowel.

Flags: scale_invariant marks features unchanged under global amplitude
scaling (property-tested); cross_vowel marks per-task features computed from
the [a], [i], [u] corner vowels; approximated marks acoustic proxies for
measures that would need instrumentation; provisional marks definitions
taken from the specialist literature, fixed here by docs/features.md and
versioned by definition_version.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

SUMMARY_STATS = ("median", "std", "p1", "p99", "ir")


@dataclass(frozen=True)
class FeatureEntry:
    name: str
    group: int
    kind: str  # "scalar" | "contour"
    scale_invariant: bool = True
    cross_vowel: bool = False
    approximated: bool = False
    provisional: bool = False
    definition_version: int = 1


REGISTRY: list[FeatureEntry] = [
    # group 1: phonation
    FeatureEntry("f0", 1, "contour"),
    FeatureEntry("jitter_local", 1, "contour"),
    FeatureEntry("jitter_abs", 1, "contour"),
    FeatureEntry("jitter_rap", 1, "contour"),
    FeatureEntry("jitter_ppq5", 1, "contour"),
    FeatureEntry("jitter_ddp", 1, "contour"),
    FeatureEntry("shimmer_local", 1, "contour"),
    FeatureEntry("shimmer_db", 1, "contour"),
    FeatureEntry("shimmer_apq3", 1, "contour"),
    FeatureEntry("shimmer_apq5", 1, "contour"),
    FeatureEntry("shimmer_apq11", 1, "contour"),
    FeatureEntry("shimmer_dda", 1, "contour"),
    FeatureEntry("gq_open_std", 1, "contour", approximated=True),
    FeatureEntry("gq_closed_std", 1, "contour", approximated=True),
    FeatureEntry("energy", 1, "contour", scale_invariant=False),
    FeatureEntry("tkeo", 1, "contour", scale_invariant=False),
    FeatureEntry("ppe", 1, "scalar"),
    FeatureEntry("me_4hz", 1, "scalar"),
    FeatureEntry("mpsd", 1, "scalar", scale_invariant=False),
    FeatureEntry("lster", 1, "scalar"),
    # group 2: articulation
    FeatureEntry("f1", 2, "contour"),
    FeatureEntry("f2", 2, "contour"),
    FeatureEntry("f3", 2, "contour"),
    FeatureEntry("bw1", 2, "contour"),
    FeatureEntry("bw2", 2, "contour"),
    FeatureEntry("bw3", 2, "contour"),
    FeatureEntry("vsa", 2, "scalar", cross_vowel=True),
    FeatureEntry("ln_vsa", 2, "scalar", cross_vowel=True),
    FeatureEntry("fcr", 2, "scalar", cross_vowel=True),
    FeatureEntry("vai", 2, "scalar", cross_vowel=True),
    FeatureEntry("f2i_f2u", 2, "scalar", cross_vowel=True),
    # group 3: voice quality
    FeatureEntry("zcr", 3, "contour"),
    FeatureEntry("sf", 3, "contour"),
    FeatureEntry("cpp", 3, "contour"),
    FeatureEntry("pecm", 3, "contour", provisional=True),
    FeatureEntry("vr", 3, "contour", provisional=True),
    FeatureEntry("hnr", 3, "contour"),
    FeatureEntry("nhr", 3, "contour"),
    FeatureEntry("nne", 3, "contour", provisional=True),
    FeatureEntry("gne", 3, "contour", definition_version=2),
    FeatureEntry("spi", 3, "contour", provisional=True),
    FeatureEntry("vti", 3, "contour", provisional=True),
    FeatureEntry("ssd", 3, "contour", provisional=True),
    FeatureEntry("hzcrr", 3, "scalar"),
    FeatureEntry("fluf", 3, "scalar"),
    FeatureEntry("sdbm", 3, "scalar", provisional=True),
    FeatureEntry("sdbp", 3, "scalar", provisional=True),
    # version 2: band envelopes from the band's rfft bins (docs/features.md)
    FeatureEntry("mser", 3, "scalar", provisional=True, definition_version=2),
    FeatureEntry("mfp", 3, "scalar", definition_version=2),
    FeatureEntry("rphm", 3, "scalar", provisional=True, definition_version=2),
    FeatureEntry("icer", 3, "scalar", provisional=True, definition_version=2),
    FeatureEntry("rphic", 3, "scalar", provisional=True, definition_version=2),
    # group 4: bispectrum / bicepstrum (per analysis block)
    FeatureEntry("bis_bii", 4, "contour"),
    FeatureEntry("bis_hfeb", 4, "contour"),
    FeatureEntry("bis_lfeb", 4, "contour"),
    FeatureEntry("bis_bmii", 4, "contour", provisional=True),
    FeatureEntry("bis_bpii", 4, "contour", provisional=True),
    FeatureEntry("bis_lsber", 4, "contour", scale_invariant=False),
    FeatureEntry("bis_hsber", 4, "contour", scale_invariant=False),
    FeatureEntry("bic_bcii", 4, "contour", provisional=True),
    FeatureEntry("bic_hfebc", 4, "contour", provisional=True),
    FeatureEntry("bic_lfebc", 4, "contour", provisional=True),
    FeatureEntry("bic_cmii", 4, "contour", provisional=True),
    FeatureEntry("bic_bcpii", 4, "contour", provisional=True),
    FeatureEntry("bic_lcbcer", 4, "contour", provisional=True),
    FeatureEntry("bic_hcbcer", 4, "contour", provisional=True),
    FeatureEntry("bic_bcmd", 4, "contour", provisional=True),
    FeatureEntry("bic_bcpd", 4, "contour", provisional=True),
    # group 5: empirical mode decomposition
    FeatureEntry("imf_snr_tkeo", 5, "scalar"),
    FeatureEntry("imf_snr_seo", 5, "scalar"),
    FeatureEntry("imf_snr_se", 5, "scalar"),
    FeatureEntry("imf_snr_re", 5, "scalar"),
    FeatureEntry("imf_snr_zcr", 5, "scalar"),
    FeatureEntry("imf_nsr_tkeo", 5, "scalar"),
    FeatureEntry("imf_nsr_seo", 5, "scalar"),
    FeatureEntry("imf_nsr_se", 5, "scalar"),
    FeatureEntry("imf_nsr_re", 5, "scalar"),
    FeatureEntry("imf_fd", 5, "scalar", scale_invariant=False),
    FeatureEntry("imf_cpp", 5, "scalar"),
    FeatureEntry("imf_gne", 5, "scalar", definition_version=2),
    # group 6: nonlinear dynamics (entropies per analysis block)
    FeatureEntry("she", 6, "contour"),
    FeatureEntry("re", 6, "contour"),
    FeatureEntry("ce", 6, "contour", provisional=True),
    FeatureEntry("rbe1", 6, "contour", provisional=True),
    FeatureEntry("rbe2", 6, "contour", provisional=True),
    FeatureEntry("ae", 6, "contour"),
    FeatureEntry("se_k1", 6, "contour", provisional=True),
    FeatureEntry("se_k2", 6, "contour", provisional=True),
    FeatureEntry("se_k3", 6, "contour", provisional=True),
    FeatureEntry("se_k4", 6, "contour", provisional=True),
    FeatureEntry("se_k5", 6, "contour", provisional=True),
    FeatureEntry("se_k6", 6, "contour", provisional=True),
    FeatureEntry("se_k7", 6, "contour", provisional=True),
    FeatureEntry("se_k8", 6, "contour", provisional=True),
    FeatureEntry("pe", 6, "contour"),
    FeatureEntry("fd", 6, "contour"),
    FeatureEntry("zl", 6, "contour"),
    FeatureEntry("cd", 6, "scalar"),
    FeatureEntry("he", 6, "scalar"),
    FeatureEntry("lle", 6, "scalar"),
    FeatureEntry("fmmi", 6, "scalar"),
]

if len({e.name for e in REGISTRY}) != len(REGISTRY):
    raise RuntimeError("duplicate feature names in registry")


def column_names(include_cross_vowel: bool = True) -> list[str]:
    """Matrix column names after contour summarization, in registry order."""
    cols: list[str] = []
    for e in REGISTRY:
        if e.cross_vowel and not include_cross_vowel:
            continue
        if e.kind == "contour":
            cols.extend(f"{e.name}_{stat}" for stat in SUMMARY_STATS)
        else:
            cols.append(e.name)
    return cols


def per_vowel_width() -> int:
    return len(column_names())


def to_json(path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(e) for e in REGISTRY], fh, indent=1)
