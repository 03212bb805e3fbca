"""End-to-end check that scale-averaged inference is safe to turn on.

Multi-scale testing helps only when the scales it visits are in the model's
training distribution, so the run here uses resize augmentation spanning the
test scales. Trained without it, the halved and enlarged passes are
off-distribution and their averaged probabilities drag the score down.
"""

from pyrseg.ablate import context_dataset_config
from pyrseg.config import RunConfig
from pyrseg.data import AugmentConfig
from pyrseg.metrics import evaluate, mean_iou, pixel_accuracy
from pyrseg.model import build_model
from pyrseg.optim import SGD
from pyrseg.synth import synth_generate
from pyrseg.training import train_loop


def test_multi_scale_does_not_hurt_fitted_train_set():
    rc = RunConfig()
    samples = synth_generate(context_dataset_config(3), 8)
    aug = AugmentConfig(mirror_prob=0.5, resize_range=(0.5, 2.0),
                        rotation_deg=0.0, blur_prob=0.0, crop_size=128)
    model = build_model(rc.to_model_config(), seed=0)
    ocfg = rc.to_optim_config(max_iter=400)
    sgd = SGD(model, ocfg)
    train_loop(model, sgd, samples, aug, ocfg, seed=0, batch_size=4)

    single = evaluate(model, samples, scales=(1.0,))
    multi = evaluate(model, samples, scales=(0.5, 1.0, 1.5))
    assert pixel_accuracy(single) > 0.9
    assert mean_iou(multi) >= mean_iou(single) - 0.02
