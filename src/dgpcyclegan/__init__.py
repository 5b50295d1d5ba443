"""GP-supervised unpaired image translation, desk scale.

The package splits into the numeric core (linalg, kernels, gp_supervisor),
the differentiable networks (nets), the training loop (trainer), synthetic
data plus metrics (data_metrics), and the command-line front end (cli,
verify).  native loads _native.c's library at import, compiling it into a
per-user cache on the first import: bit-exact twins of the Adam update, the
kNN scan, the symmetric Gram and the nets' forward, backward and
parameter-gradient passes, which kernels, gp_supervisor and nets call where
it built.
"""

from .data_metrics import DegradeSpec, psnr, read_pgm, ssim, write_pgm
from .errors import DgpError
from .gp_supervisor import (
    FeatureBank,
    GpPosterior,
    bank_build,
    gp_condition,
    knn_select,
    pseudo_loss,
    pseudo_loss_grad,
)
from .kernels import KernelSpec, base_kernel, effective_kernel, gram
from .linalg import CholFactor, cholesky, solve_posdef
from .nets import AdamState, Discriminator, Generator, adam_step, load_checkpoint, save_checkpoint
from .trainer import (
    DeskData,
    LossBreakdown,
    TrainConfig,
    build_epoch_banks,
    lr_at,
    train_run,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CholFactor",
    "DegradeSpec",
    "DeskData",
    "DgpError",
    "Discriminator",
    "FeatureBank",
    "Generator",
    "GpPosterior",
    "KernelSpec",
    "LossBreakdown",
    "TrainConfig",
    "adam_step",
    "bank_build",
    "base_kernel",
    "build_epoch_banks",
    "cholesky",
    "effective_kernel",
    "gp_condition",
    "gram",
    "knn_select",
    "load_checkpoint",
    "lr_at",
    "psnr",
    "pseudo_loss",
    "pseudo_loss_grad",
    "read_pgm",
    "save_checkpoint",
    "solve_posdef",
    "ssim",
    "train_run",
    "train_step",
    "write_pgm",
]
