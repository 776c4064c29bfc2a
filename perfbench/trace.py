"""The traced run's two instruments: timing probes and a stack sampler.

Both live entirely here. Probes are wrappers put around the layers'
public synchronous methods for the length of one iteration and taken
off again; the sampler is a SIGPROF handler. Neither touches simulated
state, so a traced run's timeline is the untraced one.
"""

import signal
import time
from collections import Counter
from pathlib import Path

from .layers import LAYERS, layer_of, probe_targets

SAMPLE_INTERVAL_S = 0.002


class Probes:
    """Call counts, cumulative and self host time per probe.

    Self time is a call's duration minus the part spent in probed calls
    nested inside it, so the self times of all probes add up without
    double counting.
    """

    def __init__(self):
        self.calls = Counter()
        self.cum_ns = Counter()
        self.self_ns = Counter()
        self._nested = []  # per open call: ns spent in nested probes
        self._originals = []

    def install(self):
        for name, owner, method in probe_targets():
            original = owner.__dict__[method]
            self._originals.append((owner, method, original))
            setattr(owner, method, self._wrap(name, original))

    def uninstall(self):
        for owner, method, original in self._originals:
            setattr(owner, method, original)
        self._originals.clear()

    def reset(self):
        self.calls.clear()
        self.cum_ns.clear()
        self.self_ns.clear()

    def _wrap(self, name, func):
        calls, cum_ns, self_ns = self.calls, self.cum_ns, self.self_ns
        nested = self._nested
        clock = time.perf_counter_ns

        def probe(*args, **kwargs):
            calls[name] += 1
            nested.append(0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cum_ns[name] += elapsed
                self_ns[name] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed

        return probe


class Sampler:
    """CPU-time stack sampler: every SAMPLE_INTERVAL_S of process CPU
    time, charge one sample to the innermost frame under ``src/repro``
    (a C builtin has no frame, so its time lands on its caller)."""

    def __init__(self, source_root):
        self.root = str(Path(source_root).resolve())
        self.samples = Counter()
        self._layer_of_code = {}
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_sample(self, _signum, frame):
        layers = self._layer_of_code
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code, layers)
            if layer is layers:
                layer = layers[code] = self._classify(code.co_filename)
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["driver"] += 1

    def _classify(self, filename):
        if not filename.startswith(self.root):
            return None
        return layer_of(Path(filename).relative_to(self.root))

    def shares(self):
        """Share of samples per layer; every layer present, sum 1."""
        total = sum(self.samples.values())
        if not total:
            return {layer: 0.0 for layer in LAYERS}
        return {layer: self.samples[layer] / total for layer in LAYERS}


class Trace:
    """Probes and sampler for one traced iteration."""

    def __init__(self, source_root):
        self.probes = Probes()
        self.sampler = Sampler(source_root)

    def install(self):
        self.probes.install()

    def begin(self):
        """Start of the measured window: set-up calls are not counted."""
        self.probes.reset()
        self.sampler.start()

    def end(self):
        self.sampler.stop()

    def uninstall(self):
        self.probes.uninstall()
