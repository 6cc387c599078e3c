"""sococ: a deterministic simulator of an auction-driven self-organizing cloud.

The pipeline: `topology.organize` bootstraps the core/periphery contact
structure, `workload.generate_stream` produces the request stream,
`engine.run` drives the requests through coalition auctions (`market`), and
`metrics` bins the outcomes into the run report. `harness` ties the stages
together behind named experiment presets and the `sococ` CLI.
"""

from .engine import EngineConfig, Fleet, init_servers, run
from .errors import ConfigurationError, InternalConsistencyError
from .harness import ExperimentPreset, load_config, preset, run_experiment, sweep
from .market import AuctionOutcome, Bid, Coalition, Market, MarketConfig
from .metrics import MetricsConfig, MetricsSink, RunReport, coalition_histogram, emit, subset_stddev
from .topology import (
    ContactTopology,
    TopologyConfig,
    TopologyStats,
    compute_stats,
    expected_pcs_size,
    expected_secondary_fraction,
    organize,
)
from .workload import DistributionSpec, Mode, ServiceRequest, WorkloadConfig, generate_stream

__version__ = "0.1.0"
