"""A training run for autotune's ``cmd:`` objective whose cost depends on
everything it was trained on, so a resume from the wrong checkpoint, or from
none, changes the costs.

It reads LR, MOMENTUM, AUTOTUNE_BUDGET and AUTOTUNE_SEED, resumes from the
file AUTOTUNE_CHECKPOINT names when that exists, and writes its state there:
the fraction of a run trained so far and the loss summed over it. The last
line it prints is ``cost=<float>``::

    autotune tune pbt --space space.txt --objective "cmd:python3 stateful_command.py"
"""
import math
import os

budget = float(os.environ["AUTOTUNE_BUDGET"])
seed = int(os.environ["AUTOTUNE_SEED"])
lr = float(os.environ["LR"])
momentum = float(os.environ["MOMENTUM"])
path = os.environ["AUTOTUNE_CHECKPOINT"]

trained, loss = 0.0, 0.0
if os.path.exists(path):
    with open(path, encoding="utf-8") as fh:
        trained, loss = (float(word) for word in fh.read().split())
# each fraction trained adds a loss that depends on the configuration it was
# trained with
loss += (budget - trained) * ((math.log10(lr) + 2.0) ** 2 + (momentum - 0.9) ** 2 + 0.01 * seed)
with open(path, "w", encoding="utf-8") as fh:
    fh.write(f"{budget!r} {loss!r}\n")
print(f"cost={loss + (1.0 - budget)!r}")
