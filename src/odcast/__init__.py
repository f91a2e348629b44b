"""odcast: streaming origin-destination demand forecasting.

The engine ingests timestamped trip events, maintains exponentially decayed
memory vectors per traffic node plus learned cluster/area summaries, and
predicts the next window's full origin-destination demand matrix.
"""

from .events import (EventBatch, EventStream, NodeCatalog, TransactionEvent, batch_by_cap,
                     batch_by_window, build_od_matrix, default_t0, load_catalog,
                     parse_events, write_catalog_csv, write_events_csv)
from .memory import (DEFAULT_DECAY_RATE, DecayConfig, StationMemory, StationMessage,
                     StationMessages, aggregate_messages, oracle_representation,
                     read_representation, update_station_memory)
from .model import (HyperParams, MemoryBank, ModelParams, Prediction, init_params,
                    od_loss, predict_od, step)
from .synthesis import RateFunction, RateSegment, SynthConfig, generate, true_window_mean
from .training import TrainConfig, Splits, load_checkpoint, save_checkpoint, train
from .evaluation import MetricReport, compute_metrics, evaluate, ha_baseline

__version__ = "0.1.0"

__all__ = [
    "EventBatch", "EventStream", "NodeCatalog", "TransactionEvent", "batch_by_cap",
    "batch_by_window", "build_od_matrix", "default_t0", "load_catalog", "parse_events",
    "write_catalog_csv", "write_events_csv", "DEFAULT_DECAY_RATE", "DecayConfig", "StationMemory",
    "StationMessage", "StationMessages", "aggregate_messages", "oracle_representation",
    "read_representation", "update_station_memory",
    "HyperParams", "MemoryBank", "ModelParams", "Prediction", "init_params", "od_loss",
    "predict_od", "step", "RateFunction", "RateSegment", "SynthConfig", "generate",
    "true_window_mean", "TrainConfig", "Splits", "load_checkpoint", "save_checkpoint",
    "train", "MetricReport", "compute_metrics", "evaluate", "ha_baseline",
]
