"""feclab: hard-decision product/staircase FEC with soft-aided bit marking.
Names not exported here live in the submodules (feclab.pc, feclab.sim, ...)."""

from .bch import build_code
from .errors import ConfigError
from .modem import ChannelConfig, awgn_transmit, demap_llr, modulate
from .pc import PcCode, SabmParams, pc_encode, sabm_decode
from .sim import SimConfig, run_sweep

__version__ = "0.1.0"
