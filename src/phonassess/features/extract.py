"""Per-recording extraction: one value or contour per registry entry.

Frame-based contours (f0, energies, spectral flux, formants) run over 25 ms
frames with a 10 ms hop. Block-based contours run the heavier measures over
500 ms analysis blocks hopped by 250 ms, giving per-block values whose
spread the summary statistics capture.

Failures never abort a recording. A failed recording-level measure yields
NaN for each of its features plus a failure entry. A failed block measure is
skipped for that block without a trace; only a contour that no block gave a
value gets NaN and the failure "no block produced a value".
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..audio import ANALYSIS_RATE, Recording, frame_array, frame_signal, resample
from ..errors import PhonassessError
from ..pitch import F0Contour, detect_cycles, estimate_f0
from . import articulation, emd, highorder, nonlinear, phonation, quality
from .registry import REGISTRY

BLOCK_LEN_S = 0.5
BLOCK_HOP_S = 0.25


@dataclass
class ExtractionParams:
    f0_min: float = 60.0
    f0_max: float = 400.0
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    block_len_s: float = BLOCK_LEN_S
    block_hop_s: float = BLOCK_HOP_S
    max_imfs: int = 10
    peak_normalize: bool = False


@dataclass
class ExtractionResult:
    features: dict[str, float | np.ndarray]
    failures: dict[str, str] = field(default_factory=dict)


def _block_bounds(n: int, fs: int, params: ExtractionParams) -> list[tuple[int, int]]:
    blen = int(params.block_len_s * fs)
    bhop = int(params.block_hop_s * fs)
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


def extract_recording(rec: Recording, params: ExtractionParams | None = None) -> ExtractionResult:
    """Run the full measure battery on one recording.

    The recording is resampled to the 16 kHz analysis rate first. Returns
    per-registry-name scalars and contours plus a failure log mapping feature
    names to the reason they are missing.
    """
    params = params or ExtractionParams()
    if rec.fs != ANALYSIS_RATE:
        rec = resample(rec, ANALYSIS_RATE)
    if params.peak_normalize:
        peak = np.max(np.abs(rec.samples))
        if peak > 0:
            rec = Recording(rec.samples / peak, rec.fs, rec.subject_id, rec.vowel, rec.task)
    x = rec.samples
    fs = rec.fs
    feats: dict[str, float | np.ndarray] = {}
    failures: dict[str, str] = {}

    def fail(names, exc):
        for name in names:
            failures[name] = str(exc)
            feats.setdefault(name, float("nan"))

    contour = estimate_f0(rec, params.f0_min, params.f0_max)
    frames = frame_signal(rec, params.frame_ms, params.hop_ms, "hann")
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
        (IMF_KEYS, lambda: emd.imf_features(emd.emd(x, params.max_imfs), fs)),
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

    frame_len = int(params.frame_ms * fs / 1000)
    frame_hop = int(params.hop_ms * fs / 1000)
    prev_bispec = None

    def higher_order(seg, sub_contour, sub_cycles):
        # bcmd/bcpd compare with the previous block's estimate: NaN in the
        # first block and after a failed one, and then not pushed
        nonlocal prev_bispec
        prev, prev_bispec = prev_bispec, None
        est = highorder.estimate_bispectrum(
            frame_array(seg, fs, highorder.NFFT, highorder.NFFT // 2, "hann"))
        values = {f"bis_{k}": v for k, v in highorder.bispectral_features(est).items()}
        values.update((f"bic_{k}", v) for k, v in highorder.bicepstral_features(est, prev).items()
                      if not np.isnan(v))
        prev_bispec = est
        return values

    def nonlinear_block(seg, sub_contour, sub_cycles):
        values = nonlinear.entropy_features(seg, nonlinear.embed(seg, nonlinear.EMBED_DIM, tau))
        return {**values, "fd": nonlinear.katz_fd(seg), "zl": nonlinear.normalized_lempel_ziv(seg)}

    # rows take (block samples, block contour, block cycles); rows returning
    # a dict need no names; the cycle rows are skipped in blocks with no
    # cycle marks (slice_range gives None under 3 cycles)
    block_measures = [
        (JITTER_KEYS, lambda seg, con, cyc: phonation.jitter_features(cyc)),
        (SHIMMER_KEYS, lambda seg, con, cyc: phonation.shimmer_features(cyc)),
        (GQ_KEYS, lambda seg, con, cyc: phonation.glottal_quotient_stds(cyc)),
        (("cpp", "pecm", "vr"), lambda seg, con, cyc: quality.cepstral_quality(
            frame_array(seg, fs, frame_len, frame_hop, "hann"), con)),
        (("hnr", "nhr", "nne", "gne", "spi", "vti", "ssd"),
         lambda seg, con, cyc: quality.noise_measures(
             Recording(seg, fs, rec.subject_id, rec.vowel, rec.task), con)),
        ((), higher_order),
        ((), nonlinear_block),
    ]

    bounds = _block_bounds(len(x), fs, params) or [(0, len(x))]
    block_vals: dict[str, list[float]] = {}
    for s0, s1 in bounds:
        seg = x[s0:s1]
        sub_contour = _slice_contour(contour, s0 / fs, s1 / fs)
        sub_cycles = cycles.slice_range(s0, s1) if cycles is not None else None
        for names, measure in block_measures:
            if sub_cycles is None and names in (JITTER_KEYS, SHIMMER_KEYS, GQ_KEYS):
                continue
            try:
                values = _named(names, measure(seg, sub_contour, sub_cycles))
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
