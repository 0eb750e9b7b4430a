"""Exception types shared across the toolkit."""


class PhonassessError(Exception):
    """Base class for toolkit errors."""


class ConfigError(PhonassessError):
    """Bad config file or value, scope token or target; the CLI exits 1 on it."""


class AudioError(PhonassessError):
    """Unreadable, empty, or unsupported audio input."""


class ManifestError(PhonassessError):
    """Malformed cohort manifest (duplicate ids, bad labels, out-of-range scores)."""


class InsufficientSignalError(PhonassessError):
    """Signal too short, too few cycles, or not enough voicing for a measure."""
