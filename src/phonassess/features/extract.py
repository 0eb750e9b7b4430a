"""Per-recording extraction: one value or contour per registry entry.

Every recording is resampled to ANALYSIS_RATE (16 kHz) first; the measures
take that sample array, or frames cut from it, and no rate. Frame-based
contours (energies, spectral flux, formants) run over FRAME (25 ms) frames
with a HOP (10 ms) hop; the f0 contour uses the pitch tracker's F0_FRAME
(40 ms) frames in [F0_MIN, F0_MAX] = [60, 400] Hz. Block-based
contours run the heavier measures over BLOCK_LEN_S (500 ms) analysis blocks
hopped by BLOCK_HOP_S (250 ms), giving per-block values whose spread the
summary statistics capture. EMD keeps at most MAX_IMFS (10) modes. The one
option is ``peak_normalize``: scale the resampled recording to unit peak.

``MEASURES`` alone spells the names extraction produces: (names, level,
measure) rows holding each per-vowel registry name once (checked at import).
Recording rows run once, block rows in every analysis block, cycle-block rows
in every block with cycle marks. A name mismatch raises ValueError.

Failures never abort a recording. A failed recording-level measure yields NaN
for each of its features plus a failure entry; so does a feature its measure
leaves out (``cd`` without a scaling region) and an IMF1 measure (``imf_cpp``,
``imf_gne``) that fails while the other IMF features succeed, and so does every
cycle-block name when cycle detection fails. A failed block measure, or a name
it leaves out (``bic_bcmd`` and ``bic_bcpd`` in the first block), is skipped
for that block without a trace; only a contour that no block gave a value gets
NaN and the failure "no block produced a value".
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..audio import ANALYSIS_RATE, FRAME, HOP, FrameSequence, Recording, frame_array, resample
from ..errors import PhonassessError
from ..pitch import CycleMarks, F0Contour, detect_cycles, estimate_f0
from . import articulation, emd, highorder, nonlinear, phonation, quality
from .registry import REGISTRY

BLOCK_LEN_S = 0.5
BLOCK_HOP_S = 0.25
RECORDING, BLOCK, CYCLES = "recording", "block", "cycle block"  # measure levels


@dataclass
class ExtractionResult:
    features: dict[str, float | np.ndarray]
    failures: dict[str, str] = field(default_factory=dict)


def _slice_contour(contour: F0Contour, t0: float, t1: float) -> F0Contour:
    m = (contour.times >= t0) & (contour.times < t1)
    return F0Contour(times=contour.times[m] - t0, f0=contour.f0[m])


@dataclass
class _Inputs:
    """What rows read: one recording's inputs, the current block, the last bicepstrum."""
    x: np.ndarray
    frames: FrameSequence
    contour: F0Contour
    tau: int
    failures: dict[str, str]
    block: np.ndarray | None = None
    block_contour: F0Contour | None = None
    cycles: CycleMarks | None = None
    prev_cep: np.ndarray | None = None


def _formants(s: _Inputs):
    track = articulation.estimate_formants(s.frames)
    voiced_mask, _ = quality.frame_voicing(s.frames, s.contour)
    sel = voiced_mask & track.valid()
    if not np.any(sel):
        sel = track.valid()
    return (track.f1[sel], track.f2[sel], track.f3[sel],
            track.bw1[sel], track.bw2[sel], track.bw3[sel])


def _higher_order(s: _Inputs) -> dict[str, float]:
    # bcmd/bcpd need the previous block's bicepstrum: none after a failed block
    prev, s.prev_cep = s.prev_cep, None
    est = highorder.estimate_bispectrum(frame_array(s.block, highorder.NFFT, highorder.NFFT // 2))
    cep = highorder.bicepstrum(est)
    values = {f"bis_{k}": v for k, v in highorder.bispectral_features(est).items()}
    values.update((f"bic_{k}", v) for k, v in highorder.bicepstral_features(est, cep, prev).items())
    s.prev_cep = cep
    return values


def _nonlinear_block(s: _Inputs) -> dict[str, float]:
    values = nonlinear.entropy_features(s.block, s.tau)
    return {**values, "fd": nonlinear.katz_fd(s.block),
            "zl": nonlinear.normalized_lempel_ziv(s.block)}


# A measure takes _Inputs and returns a tuple for its names or a dict keyed by
# them; it looks functions up on their module at call time, so instrumentation
# that replaces a module attribute sees the call.
MEASURES = [
    (("f0",), RECORDING,
     lambda s: [s.contour.voiced_f0 if np.any(s.contour.voicing) else np.array([np.nan])]),
    (("fmmi",), RECORDING, lambda s: [float(s.tau)]),
    (("energy", "tkeo", "me_4hz", "mpsd", "lster"), RECORDING,
     lambda s: phonation.energy_features(s.frames, s.x)),
    (("zcr", "hzcrr", "fluf"), RECORDING, lambda s: quality.temporal_quality(s.frames, s.contour)),
    (("sf", "sdbm", "sdbp"), RECORDING, lambda s: quality.spectral_quality(s.frames)),
    (("f1", "f2", "f3", "bw1", "bw2", "bw3"), RECORDING, _formants),
    (("ppe",), RECORDING, lambda s: [phonation.ppe(s.contour)]),
    (("mser", "mfp", "rphm", "icer", "rphic"), RECORDING,
     lambda s: quality.modulation_measures(s.x)),
    (("imf_snr_tkeo", "imf_snr_seo", "imf_snr_se", "imf_snr_re", "imf_snr_zcr", "imf_nsr_tkeo",
      "imf_nsr_seo", "imf_nsr_se", "imf_nsr_re", "imf_fd", "imf_cpp", "imf_gne"), RECORDING,
     lambda s: emd.imf_features(emd.emd(s.x), s.failures)),
    (("cd", "he", "lle"), RECORDING,
     lambda s: nonlinear.complexity_features(s.x, s.tau)),
    (("jitter_local", "jitter_abs", "jitter_rap", "jitter_ppq5", "jitter_ddp"), CYCLES,
     lambda s: phonation.jitter_features(s.cycles)),
    (("shimmer_local", "shimmer_db", "shimmer_apq3", "shimmer_apq5", "shimmer_apq11",
      "shimmer_dda"), CYCLES, lambda s: phonation.shimmer_features(s.cycles)),
    (("gq_open_std", "gq_closed_std"), CYCLES,
     lambda s: phonation.glottal_quotient_stds(s.cycles)),
    (("cpp", "pecm", "vr"), BLOCK,
     lambda s: quality.cepstral_quality(frame_array(s.block, FRAME, HOP), s.block_contour)),
    (("hnr", "nhr", "nne", "gne", "spi", "vti", "ssd"), BLOCK,
     lambda s: quality.noise_measures(s.block, s.block_contour)),
    (("bis_bii", "bis_hfeb", "bis_lfeb", "bis_bmii", "bis_bpii", "bis_lsber", "bis_hsber",
      "bic_bcii", "bic_hfebc", "bic_lfebc", "bic_cmii", "bic_bcpii", "bic_lcbcer", "bic_hcbcer",
      "bic_bcmd", "bic_bcpd"), BLOCK, _higher_order),
    (("she", "re", "ce", "rbe1", "rbe2", "ae", "se_k1", "se_k2", "se_k3", "se_k4", "se_k5",
      "se_k6", "se_k7", "se_k8", "pe", "fd", "zl"), BLOCK, _nonlinear_block),
]

if sorted(n for names, _, _ in MEASURES for n in names) != sorted(
        e.name for e in REGISTRY if not e.cross_vowel):
    raise RuntimeError("measure table names differ from the registry's per-vowel names")


def _named(names, result) -> dict:
    """A measure's values by name; a name or count that differs from the row's raises."""
    if not isinstance(result, dict):
        return dict(zip(names, result, strict=True))
    if result.keys() - set(names):
        raise ValueError(f"measure returned {sorted(result.keys() - set(names))} outside {names}")
    return result


def extract_recording(rec: Recording, *, peak_normalize: bool = False) -> ExtractionResult:
    """Run the full measure battery on one recording.

    The recording is resampled to the 16 kHz analysis rate first and, with
    ``peak_normalize``, scaled to unit peak. Returns per-registry-name
    scalars and contours plus a failure log mapping feature names to the
    reason they are missing.
    """
    x = rec.samples if rec.fs == ANALYSIS_RATE else resample(rec)
    if peak_normalize:
        peak = np.max(np.abs(x))
        if peak > 0:
            x = x / peak
    feats: dict[str, float | np.ndarray] = {}
    failures: dict[str, str] = {}

    def fail(names, exc):
        for name in names:
            failures[name] = str(exc)
            feats.setdefault(name, float("nan"))

    contour = estimate_f0(x)
    s = _Inputs(x, frame_array(x, FRAME, HOP), contour, nonlinear.fmmi(x), failures)

    # ---- recording rows: a failure, or a name the measure leaves out, gives
    # NaN and a failure entry.
    for names, _, measure in (row for row in MEASURES if row[1] == RECORDING):
        try:
            values = _named(names, measure(s))
        except PhonassessError as exc:
            fail(names, exc)
            continue
        feats.update(values)
        fail([name for name in names if name not in values], "the measure gave no value")

    # ---- block and cycle-block rows: a failure skips that block's values --
    block_rows = [row for row in MEASURES if row[1] != RECORDING]
    try:
        cycles = detect_cycles(x, contour)
    except PhonassessError as exc:
        cycles = None
        fail([n for names, level, _ in block_rows if level == CYCLES for n in names], exc)

    block_vals = {n: [] for names, _, _ in block_rows for n in names if n not in feats}
    blen, bhop = int(BLOCK_LEN_S * ANALYSIS_RATE), int(BLOCK_HOP_S * ANALYSIS_RATE)
    # a recording shorter than one block is analysed as one block
    for s0, s1 in [(b, b + blen) for b in range(0, len(x) - blen + 1, bhop)] or [(0, len(x))]:
        s.block = x[s0:s1]
        s.block_contour = _slice_contour(contour, s0 / ANALYSIS_RATE, s1 / ANALYSIS_RATE)
        # slice_range gives None under 3 cycles: no cycle rows in this block
        s.cycles = cycles.slice_range(s0, s1) if cycles is not None else None
        for names, level, measure in block_rows:
            if level == CYCLES and s.cycles is None:
                continue
            try:
                values = _named(names, measure(s))
            except PhonassessError:
                continue
            for k, v in values.items():
                block_vals[k].append(float(v))

    for name, vals in block_vals.items():
        feats[name] = np.asarray(vals or [np.nan])
        if not vals:
            failures[name] = "no block produced a value"

    # cross-vowel features are assembled at the table level from the corner
    # vowels of the same task; placeholders keep the registry contract whole
    feats.update((e.name, float("nan")) for e in REGISTRY if e.cross_vowel)

    return ExtractionResult(features=feats, failures=failures)
