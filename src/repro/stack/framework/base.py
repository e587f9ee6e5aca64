"""The shared network runner: model + runtime -> executable network.

``configure()`` is the expensive app startup the paper measures
(Figure 6): framework init, runtime context creation, buffer
allocation, weight upload ("parameters loading IO") and JIT kernel
compilation -- each phase separately accounted in ``startup_phases``.

``run()`` performs one inference; ``layer_hook`` drains the GPU at
every layer boundary and calls back, which is how the record harness
cuts per-layer recordings (Section 3.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FrameworkError
from repro.stack.framework.layers import ModelSpec, init_weights
from repro.stack.framework.lowering import (LayerKernels, lower_model,
                                            model_slot_shapes)
from repro.stack.runtime.base import Buffer, CompiledKernel, ComputeRuntime
from repro.units import MS

LayerHook = Callable[[int, "LayerKernels"], None]


class NetworkRunner:
    """Base class for the framework personalities (ACL, ncnn, ...)."""

    framework_name = "abstract"
    #: One-time framework initialization (model load, graph optimize).
    INIT_NS = 100 * MS
    #: Per-layer pipeline/graph build cost at configure time.
    PER_LAYER_BUILD_NS = 2 * MS
    #: Per-layer run-time framework work (tensor map/unmap, operator
    #: scheduling) around each operator's synchronization point -- the
    #: user-level execution GR's replay eliminates (Section 7.4).
    LAYER_SYNC_NS = 250 * 1000

    def __init__(self, runtime: ComputeRuntime, model: ModelSpec,
                 fuse: bool = False):
        self.runtime = runtime
        self.model = model
        self.fuse = fuse
        self.lowered: List[LayerKernels] = []
        self.buffers: Dict[str, Buffer] = {}
        self.compiled: Dict[str, CompiledKernel] = {}
        self.weights: Dict[str, np.ndarray] = {}
        self.startup_phases: Dict[str, int] = {}
        self.configured = False

    # -- startup ---------------------------------------------------------------

    def configure(self) -> None:
        """Build the network: the seconds-scale startup path."""
        if self.configured:
            raise FrameworkError(f"{self.model.name}: already configured")
        clock = self.runtime.clock

        t0 = clock.now()
        clock.advance(self.INIT_NS
                      + self.PER_LAYER_BUILD_NS * len(self.model.layers))
        self.lowered = lower_model(self.model, self.fuse)
        self.startup_phases["framework_init"] = clock.now() - t0

        t0 = clock.now()
        if not self.runtime.initialized:
            self.runtime.init_context()
        self.startup_phases["runtime_context"] = clock.now() - t0

        t0 = clock.now()
        for slot, shape in model_slot_shapes(self.model, self.fuse).items():
            self.buffers[slot] = self.runtime.create_buffer(shape, tag=slot)
        self.startup_phases["buffer_alloc"] = clock.now() - t0

        t0 = clock.now()
        self.weights = init_weights(self.model)
        for name, array in self.weights.items():
            self.runtime.write_buffer(self.buffers[name], array)
        self.startup_phases["weights_upload"] = clock.now() - t0

        t0 = clock.now()
        for group in self.lowered:
            for kernel in group.kernels:
                self.compiled[kernel.name] = self.runtime.compile_kernel(
                    kernel)
        self.startup_phases["kernel_compile"] = clock.now() - t0
        self.configured = True

    @property
    def startup_ns(self) -> int:
        return sum(self.startup_phases.values())

    #: Fixed resident memory of the framework (graph structures,
    #: operator registry, optimization workspaces).
    FRAMEWORK_RSS_BYTES = 60 * 1024 * 1024

    def cpu_footprint_bytes(self) -> int:
        """Modeled resident CPU memory of framework + runtime (§7.3).

        The framework keeps host-side copies of weights and activation
        planning structures (roughly 3x the parameter bytes) on top of
        its fixed structures and the runtime below it.
        """
        if not self.configured:
            return 0
        weight_bytes = sum(w.nbytes for w in self.weights.values())
        return (self.FRAMEWORK_RSS_BYTES + 3 * weight_bytes
                + self.runtime.cpu_footprint_bytes())

    # -- inference ------------------------------------------------------------------

    def run(self, x: np.ndarray,
            layer_hook: Optional[LayerHook] = None) -> np.ndarray:
        """One inference on input ``x``; returns the output tensor."""
        self._require_configured()
        if tuple(x.shape) != tuple(self.model.input_shape):
            raise FrameworkError(
                f"{self.model.name}: input shape {x.shape} != "
                f"{self.model.input_shape}")
        self.runtime.write_buffer(self.buffers["input"], x)
        for index, group in enumerate(self.lowered):
            for kernel in group.kernels:
                self.runtime.enqueue(self.compiled[kernel.name],
                                     self.buffers)
            # Frameworks synchronize at operator boundaries (ACL maps
            # tensors / ncnn fences per layer), so each layer drains
            # the queue -- which is also the quiesced point where the
            # recorder can cut a per-layer recording.
            self.runtime.finish()
            self.runtime.clock.advance(self.LAYER_SYNC_NS)
            if layer_hook is not None:
                layer_hook(index, group)
        return self.read_output()

    def read_output(self) -> np.ndarray:
        return self.runtime.read_buffer(self.output_buffer())

    def output_buffer(self) -> Buffer:
        self._require_configured()
        return self.buffers[f"{self.model.output_layer().name}:out"]

    def job_count_per_run(self) -> int:
        return sum(len(g.kernels) for g in self.lowered)

    def release(self) -> None:
        self.runtime.release()
        self.buffers.clear()
        self.compiled.clear()
        self.configured = False

    def _require_configured(self) -> None:
        if not self.configured:
            raise FrameworkError(
                f"{self.model.name}: configure() not called")
