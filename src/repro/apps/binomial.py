"""Binomial option pricing (Figure 2, non-scalable on the explored sizes).

Each element prices one European option on a Cox-Ross-Rubinstein binomial
lattice.  The kernel evaluates the terminal-payoff sum with a running
product over the ``num_steps`` lattice levels (O(steps) work and O(1)
state per option), which keeps it inside the Brook Auto subset: the loop
has a declared upper bound and there are no local arrays.

The paper reports that, like Black-Scholes, the binomial kernel does not
beat the CPU within the explorable input sizes, but its Brook Auto curve
rises steadily with size - "the scalability trend ... shows that larger
inputs would provide a benefit over the CPU, especially in the case of
Binomial Option Pricing" - while the vectorized Brook+ x86 version is
flat (compute saturated).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform
from .base import BrookApplication, register_application

__all__ = ["BinomialOptionApp"]

RISK_FREE_RATE = 0.02
VOLATILITY = 0.30
YEARS = 1.0
#: Lattice levels.  63 keeps every intermediate of the running-product
#: recurrence inside float32 range (q**steps stays well above the minimum
#: normal) while preserving the algorithm's O(steps) per-option structure.
NUM_STEPS = 63

BROOK_SOURCE = """
kernel void binomial_option(float price<>, float strike<>,
                            float num_steps, float riskfree,
                            float volatility, float years,
                            out float value<>) {
    float dt = years / num_steps;
    float up = exp(volatility * sqrt(dt));
    float down = 1.0 / up;
    float growth = exp(riskfree * dt);
    float p_up = (growth - down) / (up - down);
    /* Any no-arbitrage parameter set keeps p_down well above zero; the
       floor is a defensive guard that also lets the range analysis prove
       the p_ratio division safe (rule BL-103). */
    float p_down = max(1.0 - p_up, 0.000001);

    /* Running-product evaluation of sum_k C(n,k) p^k q^(n-k) payoff(k). */
    float term = pow(p_down, num_steps);
    float asset = price * pow(down, num_steps);
    float up_over_down = up / down;
    float p_ratio = p_up / p_down;
    float expected = 0.0;
    float k = 0.0;
    for (int i = 0; i <= num_steps; i = i + 1) {
        float payoff = max(asset - strike, 0.0);
        expected = expected + term * payoff;
        term = term * p_ratio * (num_steps - k) / (k + 1.0);
        asset = asset * up_over_down;
        k = k + 1.0;
    }
    value = expected / pow(growth, num_steps);
}
"""

#: Arithmetic per option: ~12 flops per lattice level plus the setup
#: transcendentals (exp/sqrt/pow).
FLOPS_PER_OPTION = NUM_STEPS * 12.0 + 60.0


@register_application
class BinomialOptionApp(BrookApplication):
    """European option pricing on a binomial (CRR) lattice."""

    name = "binomial"
    description = "Binomial (CRR) option pricing with a bounded per-option loop"
    figure = "figure2"
    brook_source = BROOK_SOURCE
    #: ``num_steps`` bounds the per-option loop (rule BA-005).
    range_specs = {
        "binomial_option": {
            "params": {
                "num_steps": (1, NUM_STEPS),
                "riskfree": (0.0, 0.1),
                "volatility": (0.05, 1.0),
                "years": (0.5, 2.0),
            },
        }
    }
    default_sizes = (128, 256, 512, 1024, 2048)
    max_target_size = 2048
    validation_rtol = 5e-3

    def __init__(self, num_steps: int = NUM_STEPS):
        self.num_steps = int(num_steps)

    # ------------------------------------------------------------------ #
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            "price": rng.uniform(20.0, 80.0, size=(size, size)).astype(np.float32),
            "strike": rng.uniform(20.0, 80.0, size=(size, size)).astype(np.float32),
        }

    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        steps = self.num_steps
        price = inputs["price"].astype(np.float64)
        strike = inputs["strike"].astype(np.float64)
        dt = YEARS / steps
        up = np.exp(VOLATILITY * np.sqrt(dt))
        down = 1.0 / up
        growth = np.exp(RISK_FREE_RATE * dt)
        p_up = (growth - down) / (up - down)
        p_down = 1.0 - p_up

        term = np.full_like(price, p_down ** steps)
        asset = price * down ** steps
        expected = np.zeros_like(price)
        for k in range(steps + 1):
            payoff = np.maximum(asset - strike, 0.0)
            expected = expected + term * payoff
            term = term * (p_up / p_down) * (steps - k) / (k + 1.0)
            asset = asset * (up / down)
        value = expected / growth ** steps
        return {"value": value.astype(np.float32)}

    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        price = runtime.stream_from(inputs["price"], name="price")
        strike = runtime.stream_from(inputs["strike"], name="strike")
        value = runtime.stream((size, size), name="value")
        module.binomial_option(price, strike, float(self.num_steps),
                               RISK_FREE_RATE, VOLATILITY, YEARS, value)
        return {"value": value.read()}

    # ------------------------------------------------------------------ #
    # Workload models
    # ------------------------------------------------------------------ #
    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        elements = size * size
        if platform.backend_name == "gles2":
            # Scalar Brook Auto version: long data-dependent loop, heavy
            # register pressure -> small sustained fraction of the ALU rate,
            # but a single pass whose fixed costs amortise with size.
            efficiency = 0.025
        else:
            efficiency = 0.032
        return GPUWorkload(
            passes=1,
            elements=elements,
            flops=elements * (self.num_steps * 12.0 + 60.0),
            texture_fetches=elements * 2,
            bytes_to_device=elements * 2 * 4,
            bytes_from_device=elements * 4,
            transfer_calls=3,
            efficiency=efficiency,
        )

    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        elements = size * size
        # Streaming pattern: every per-option quantity lives in registers /
        # L1 and consecutive lattice levels expose independent operations,
        # so the CPU retires several flops per cycle (unlike the dependent
        # MAD chain of the calibration kernel).
        return CPUWorkload(
            flops=elements * (self.num_steps * 12.0 + 60.0),
            bytes_streamed=elements * 3 * 4,
            random_accesses=0,
            working_set_bytes=32 * 1024,
            ilp_factor=3.5,
        )
