"""112 Gb/s IM/DD modulation chain simulator: DMT, Nyquist PAM4 and
partial-response PAM4 over a parametric short-reach optical link model."""

from .dmt import DmtConfig, chow_bit_loading, cioffi_power_loading, dmt_demodulate, dmt_modulate
from .evaluate import BerReport, DmtExperiment, PamExperiment, count_ber, latency_budget, run_sweep
from .link import ChannelModel, apply_channel, make_channel
from .pam import PamRxConfig, PamTxConfig, pam_transmit
from .sigproc import SampleBuffer, SymbolSequence, debruijn_sequence

__version__ = "0.1.0"

__all__ = [
    "BerReport",
    "ChannelModel",
    "DmtConfig",
    "DmtExperiment",
    "PamExperiment",
    "PamRxConfig",
    "PamTxConfig",
    "SampleBuffer",
    "SymbolSequence",
    "apply_channel",
    "chow_bit_loading",
    "cioffi_power_loading",
    "count_ber",
    "debruijn_sequence",
    "dmt_demodulate",
    "dmt_modulate",
    "latency_budget",
    "make_channel",
    "pam_transmit",
    "run_sweep",
]
