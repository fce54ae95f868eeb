"""kdlab: a desk-scale laboratory for multi-teacher multimodal knowledge
distillation on synthetic paired data.

Subpackages by responsibility: ``numerics`` (shared math), ``encoder``
(affine stacks with manual backprop and Adam), ``contrastive`` (batch
contrastive distributions and loss), ``distill`` (KL/MSE distillation
losses and total assembly), ``weighting`` (teacher-weighting strategies
including the min-norm gradient solver), ``config`` (the manifest's
schema, its reader and echo), ``data`` (synthetic paired datasets and
file I/O), ``trainer`` (pretrain/distill orchestration), and ``cli`` (the
experiment runner).
"""

__version__ = "0.1.0"
