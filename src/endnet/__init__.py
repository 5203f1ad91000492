"""Hyperspectral endmember extraction and unmixing toolkit."""

from .abundance import (estimate_abundances, fcls, hidden_abundances,
                        spu_abundances, spu_sad)
from .data_io import load_cube, normalize_cube, save_abundance_maps, synth_scene
from .datatypes import AbundanceMap, HyperCube, SpectraMatrix, SynthSpec
from .evaluation import EvalReport, evaluate, match_endmembers, rmse_metric, sad_metric
from .initializers import InitResult, dmaxd, vca
from .net import EndNetModel, HyperParams, forward_batch, loss
from .trainer import TrainConfig, TrainLog, adam_step, corrupt, train

__all__ = [
    "AbundanceMap", "EndNetModel", "EvalReport", "HyperCube", "HyperParams",
    "InitResult", "SpectraMatrix", "SynthSpec", "TrainConfig", "TrainLog",
    "adam_step", "corrupt", "dmaxd", "estimate_abundances", "evaluate",
    "fcls", "forward_batch", "hidden_abundances", "load_cube",
    "loss", "match_endmembers", "normalize_cube", "rmse_metric",
    "sad_metric", "save_abundance_maps", "spu_abundances", "spu_sad",
    "synth_scene", "train", "vca",
]

__version__ = "0.1.0"
