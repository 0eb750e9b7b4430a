"""Per-recording extraction: one value or contour per registry entry.

Every recording is resampled to ANALYSIS_RATE (16 kHz) first. Frame-based
contours (energies, spectral flux, formants) run over FRAME_MS (25 ms)
frames with a HOP_MS (10 ms) hop; the f0 contour uses the pitch tracker's
F0_FRAME_MS (40 ms) frames in [F0_MIN, F0_MAX] = [60, 400] Hz. Block-based
contours run the heavier measures over BLOCK_LEN_S (500 ms) analysis blocks
hopped by BLOCK_HOP_S (250 ms), giving per-block values whose spread the
summary statistics capture. EMD keeps at most MAX_IMFS (10) modes. The one
option is ``peak_normalize``: scale the resampled recording to unit peak.

Failures never abort a recording. A failed recording-level measure yields
NaN for each of its features plus a failure entry; so does an IMF1 measure
(``imf_cpp``, ``imf_gne``) that fails while the other IMF features succeed. A failed block measure is
skipped for that block without a trace; only a contour that no block gave a
value gets NaN and the failure "no block produced a value".
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..audio import (ANALYSIS_RATE, FRAME_MS, HOP_MS, Recording, frame_array, frame_signal,
                     resample)
from ..errors import PhonassessError
from ..pitch import F0Contour, detect_cycles, estimate_f0
from . import articulation, emd, highorder, nonlinear, phonation, quality
from .registry import REGISTRY

BLOCK_LEN_S = 0.5
BLOCK_HOP_S = 0.25


@dataclass
class ExtractionResult:
    features: dict[str, float | np.ndarray]
    failures: dict[str, str] = field(default_factory=dict)


def _block_bounds(n: int, fs: int) -> list[tuple[int, int]]:
    blen = int(BLOCK_LEN_S * fs)
    bhop = int(BLOCK_HOP_S * fs)
    if n < blen:
        return []
    count = (n - blen) // bhop + 1
    return [(i * bhop, i * bhop + blen) for i in range(count)]


def _slice_contour(contour: F0Contour, t0: float, t1: float) -> F0Contour:
    m = (contour.times >= t0) & (contour.times < t1)
    peaks = contour.acf_peak[m] if contour.acf_peak is not None else None
    return F0Contour(times=contour.times[m] - t0, f0=contour.f0[m],
                     voicing=contour.voicing[m], acf_peak=peaks)


JITTER_KEYS = ("jitter_local", "jitter_abs", "jitter_rap", "jitter_ppq5", "jitter_ddp")
SHIMMER_KEYS = ("shimmer_local", "shimmer_db", "shimmer_apq3", "shimmer_apq5",
                "shimmer_apq11", "shimmer_dda")
GQ_KEYS = ("gq_open_std", "gq_closed_std")
CYCLE_KEYS = JITTER_KEYS + SHIMMER_KEYS + GQ_KEYS
FORMANT_KEYS = ("f1", "f2", "f3", "bw1", "bw2", "bw3")
IMF_KEYS = tuple(e.name for e in REGISTRY if e.group == 5)


def _named(names, result) -> dict:
    """A measure's values by name: a tuple is zipped onto ``names``, a dict passes through."""
    return result if isinstance(result, dict) else dict(zip(names, result))


def extract_recording(rec: Recording, *, peak_normalize: bool = False) -> ExtractionResult:
    """Run the full measure battery on one recording.

    The recording is resampled to the 16 kHz analysis rate first and, with
    ``peak_normalize``, scaled to unit peak. Returns per-registry-name
    scalars and contours plus a failure log mapping feature names to the
    reason they are missing.
    """
    if rec.fs != ANALYSIS_RATE:
        rec = resample(rec, ANALYSIS_RATE)
    if peak_normalize:
        peak = np.max(np.abs(rec.samples))
        if peak > 0:
            rec = Recording(rec.samples / peak, rec.fs)
    x = rec.samples
    fs = rec.fs
    feats: dict[str, float | np.ndarray] = {}
    failures: dict[str, str] = {}

    def fail(names, exc):
        for name in names:
            failures[name] = str(exc)
            feats.setdefault(name, float("nan"))

    contour = estimate_f0(rec)
    frames = frame_signal(rec, FRAME_MS, HOP_MS)
    feats["f0"] = contour.voiced_f0 if np.any(contour.voicing) else np.array([np.nan])
    tau = nonlinear.fmmi(x)
    feats["fmmi"] = float(tau)

    def formants():
        track = articulation.estimate_formants(frames, fs)
        voiced_mask, _ = quality.frame_voicing(frames, contour)
        sel = voiced_mask & track.valid()
        if not np.any(sel):
            sel = track.valid()
        return [getattr(track, key)[sel] for key in FORMANT_KEYS]

    # ---- recording-level measures: a failure leaves NaN and a failure entry.
    # Rows call measures through their module at call time, so a function
    # replaced on its module (for instrumentation) is the one that runs.
    recording_measures = [
        (("energy", "tkeo", "me_4hz", "mpsd", "lster"),
         lambda: phonation.energy_features(frames, rec)),
        (("zcr", "hzcrr", "fluf"), lambda: quality.temporal_quality(frames, contour)),
        (("sf", "sdbm", "sdbp"), lambda: quality.spectral_quality(frames)),
        (FORMANT_KEYS, formants),
        (("ppe",), lambda: [phonation.ppe(contour)]),
        (("mser", "mfp", "rphm", "icer", "rphic"), lambda: quality.modulation_measures(rec)),
        (IMF_KEYS, lambda: emd.imf_features(emd.emd(x), fs, failures)),
        (("cd", "he", "lle"), lambda: nonlinear.complexity_features(
            nonlinear.embed(x, nonlinear.EMBED_DIM, tau), x)),
    ]
    for names, measure in recording_measures:
        try:
            feats.update(_named(names, measure()))
        except PhonassessError as exc:
            fail(names, exc)

    # ---- per-block measures: a failure skips that block's values ---------
    try:
        cycles = detect_cycles(rec, contour)
    except PhonassessError as exc:
        cycles = None
        fail(CYCLE_KEYS, exc)

    prev_cep = None

    def higher_order(blk, con, cyc):
        # bcmd/bcpd compare with the previous block's bicepstrum: NaN in the
        # first block and after a failed one, and then not pushed
        nonlocal prev_cep
        prev, prev_cep = prev_cep, None
        est = highorder.estimate_bispectrum(
            frame_array(blk.samples, fs, highorder.NFFT, highorder.NFFT // 2))
        cep = highorder.bicepstrum(est)
        values = {f"bis_{k}": v for k, v in highorder.bispectral_features(est).items()}
        values.update((f"bic_{k}", v)
                      for k, v in highorder.bicepstral_features(est, cep, prev).items()
                      if not np.isnan(v))
        prev_cep = cep
        return values

    def nonlinear_block(blk, con, cyc):
        seg = blk.samples
        values = nonlinear.entropy_features(seg, nonlinear.embed(seg, nonlinear.EMBED_DIM, tau))
        return {**values, "fd": nonlinear.katz_fd(seg), "zl": nonlinear.normalized_lempel_ziv(seg)}

    # rows take (block recording, block contour, block cycles); rows
    # returning a dict need no names; the cycle rows are skipped in blocks
    # with no cycle marks (slice_range gives None under 3 cycles)
    block_measures = [
        (JITTER_KEYS, lambda blk, con, cyc: phonation.jitter_features(cyc)),
        (SHIMMER_KEYS, lambda blk, con, cyc: phonation.shimmer_features(cyc)),
        (GQ_KEYS, lambda blk, con, cyc: phonation.glottal_quotient_stds(cyc)),
        (("cpp", "pecm", "vr"), lambda blk, con, cyc: quality.cepstral_quality(
            frame_signal(blk, FRAME_MS, HOP_MS), con)),
        (("hnr", "nhr", "nne", "gne", "spi", "vti", "ssd"),
         lambda blk, con, cyc: quality.noise_measures(blk, con)),
        ((), higher_order),
        ((), nonlinear_block),
    ]

    bounds = _block_bounds(len(x), fs) or [(0, len(x))]
    block_vals: dict[str, list[float]] = {}
    for s0, s1 in bounds:
        block = Recording(x[s0:s1], fs)
        sub_contour = _slice_contour(contour, s0 / fs, s1 / fs)
        sub_cycles = cycles.slice_range(s0, s1) if cycles is not None else None
        for names, measure in block_measures:
            if sub_cycles is None and names in (JITTER_KEYS, SHIMMER_KEYS, GQ_KEYS):
                continue
            try:
                values = _named(names, measure(block, sub_contour, sub_cycles))
            except PhonassessError:
                continue
            for k, v in values.items():
                block_vals.setdefault(k, []).append(float(v))

    for entry in REGISTRY:
        if entry.kind != "contour" or entry.name in feats:
            continue
        vals = block_vals.get(entry.name)
        if vals:
            feats[entry.name] = np.asarray(vals)
        else:
            feats[entry.name] = np.array([np.nan])
            failures.setdefault(entry.name, "no block produced a value")

    # cross-vowel features are assembled at the table level from the corner
    # vowels of the same task; placeholders keep the registry contract whole
    for entry in REGISTRY:
        if entry.cross_vowel:
            feats.setdefault(entry.name, float("nan"))

    return ExtractionResult(features=feats, failures=failures)
