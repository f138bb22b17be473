"""secmac: integer-constellation secure coding on the Gaussian multiple-access channel.

Simulation and exact-analysis toolkit for a K-user wiretap MAC scheme
that aligns all users into one dimension at the eavesdropper while
keeping them separable at the intended receiver, with random binning on
top for secrecy.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelGains,
    NormalizedGains,
    effective_power,
    normalize_gains,
    sample_gains,
    transmit,
)
from .codec import (
    Codebook,
    build_codebook,
    encode,
    hard_decode,
)
from .constellation import (
    GammaStatus,
    ReceivedConstellation,
    pe_upper_bound,
    received_constellation,
    select_params,
)
from .diophantine import (
    KGProfile,
    kg_profile,
    min_linear_form,
)
from .errors import (
    ParameterError,
    SizeCapError,
)
from .secrecy import (
    DiscreteMACSpec,
    RateRegion,
    achievable_region,
    composition_counts,
    leakage_estimate,
    load_mac_spec,
    mutual_information,
    sdof_fit,
    sdof_limit,
    sum_entropy,
    sum_rate_lower_bound,
)
from .simulate import (
    BlockReport,
    LeakageRunReport,
    SimConfig,
    SweepReport,
    run_block_trials,
    run_leakage,
    run_symbol_sweep,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
