"""Forward-kinematics computation backends emulated at the arithmetic level.

A double-precision DH chain model serves as the oracle; next to it sit four
hardware-flavored evaluation paths (CORDIC module cascade, fixed-point
Taylor engine, constant-factor CORDIC recurrences, quarter-wave lookup
tables) and a micro-coded FK-processor VM, all measurable for accuracy,
operation count, and modeled latency.
"""

from .fixedpoint import DomainError, Q1_15, Q8_24, QFormat, fx_from_real
from .cordic import (
    CordicConfig,
    circ_rotate_lanes,
    gain,
    linear_unit_lanes,
    sincos_cordic,
)
from .dh import (
    ChainSet,
    DhJoint,
    PRISMATIC,
    ROTARY,
    PumaParams,
    chain_pose,
    chain_product,
    chain_poses,
    decompose,
    exact_sincos,
    provider_links,
    puma_chain,
    puma_closed_form,
)
from .ccm import PipelineModel, ccm_points, ccm_poses, latency_us
from .taylor import TaylorConfig, remainder_bound, taylor_sincos
from .cfr import CfrState, cfr_gain, cfr_rotate, cfr_step, selection
from .lut import SinTable, build_table, dump_table, error_profile, load_table, lut_sincos
from .umdh import (
    CapacityError,
    FkInstr,
    FkProgram,
    UmdhParams,
    VmConfig,
    clock_time,
    umdh_chain,
    umdh_program,
    umdh_t04_naive,
    vm_run,
)

__version__ = "0.1.0"
