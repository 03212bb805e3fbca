"""Pyramid scene parsing at desk scale: a numpy segmentation stack with
recorded-tape autodiff, a dilated residual backbone, pyramid pooling, seeded
training, and binary checkpoints."""

from .backbone import Backbone, BackboneConfig
from .backbone import preset as backbone_preset
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .config import RunConfig, load_config
from .data import AugmentConfig, SegBatch, SegSample, augment, load_dataset, \
    write_dataset
from .metrics import ConfusionMatrix, evaluate, mean_iou, multi_scale_infer, \
    pixel_accuracy
from .model import ModelConfig, PSPNet, build_model
from .optim import SGD, OptimConfig, poly_lr
from .pyramid import PyramidConfig, PyramidPooling, psp_ablation_variants
from .synth import SynthConfig, synth_generate
from .tensor import Graph, Tensor, backward, finite_diff_check
from .training import train_loop

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "Backbone", "BackboneConfig", "ConfusionMatrix", "Graph",
    "ModelConfig", "OptimConfig", "PSPNet", "PyramidConfig",
    "PyramidPooling", "RunConfig", "SGD", "SegBatch", "SegSample", "SynthConfig",
    "Tensor", "augment", "backbone_preset", "backward", "build_model",
    "evaluate", "finite_diff_check", "load_checkpoint", "load_config",
    "load_dataset", "mean_iou", "multi_scale_infer",
    "pixel_accuracy", "poly_lr", "psp_ablation_variants", "save_checkpoint",
    "synth_generate", "train_loop", "write_dataset", "__version__",
]
