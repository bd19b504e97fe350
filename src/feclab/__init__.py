"""feclab: hard-decision product/staircase FEC with soft-aided bit marking."""

from .bch import BchCode, build_code
from .errors import ConfigError
from .gf2m import GaloisField, build_field, gf_inv, gf_mul, poly_rem
from .modem import (ChannelConfig, Interleaver, ReliabilityGrid, awgn_transmit,
                    demap_llr, interleave, make_interleaver, modulate)
from .pc import (DecodeStats, MarkState, PcCode, SabmParams, ibdd_decode, mark_bits,
                 pc_encode, sabm_decode)
from .scc import SccCode, decode_chain, eta, scc_encode, scc_window_decode
from .sim import BerStats, SimConfig, mask_stats, run_point, run_sweep

__version__ = "0.1.0"
