"""Span tracing of clcp from outside, by wrapping module-level callables.

``Tracer.installed()`` rebinds every module attribute in the ``clcp``
package that refers to a traced function, so calls made through direct
imports (``from .tensor import matmul``) are caught as well as calls through
the package.  Methods are wrapped on their class.  Each call records one span
(name, start, end, parent); an ``ndnn`` op that returns a tensor with a
backward closure also has that closure wrapped, so its backward pass records a
``<op>.bwd`` span.  Leaving the context restores every original binding, so
untraced work runs the unmodified program.

Spans stay in memory until ``write`` dumps them at the end of the run.  Count
hooks record what a layer did (tokens produced, truncated images, recycled
scopes, rule firings) at the same boundaries.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

from clcp import encoders, himg, ndnn, pylex, textclean, training, vocab, zeval
from clcp.ndnn import Tensor
from clcp.ndnn.optim import Adam

class Tracer:
    """In-memory span recorder with per-unit counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.last_closed = -1
        self.units = 0
        self.counts = defaultdict(int)
        self._unique_sources = set()
        self.step_ms = []
        self.truncation_mismatches = []
        self._train_mode = False
        self._step_start = None
        self._id_lengths = []   # assign_ids output lengths since the last encode_corpus
        self._encode_corpus_signature = inspect.signature(himg.encode_corpus)

    # -- spans -------------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        self.last_closed = idx

    def call(self, name, fn, args, kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def end_unit(self):
        """Close a traced unit of work: counters are reported per unit."""
        self.units += 1
        self.counts["pylex.unique_sources"] += len(self._unique_sources)
        self._unique_sources = set()

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block; restore on exit."""
        restore = []
        try:
            for owner, attr, wrapper in self._wrappers():
                restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrappers(self):
        targets = {}   # original function -> wrapper
        for name in ndnn.__all__:
            obj = getattr(ndnn, name)
            if inspect.isfunction(obj):
                targets[obj] = self._op_wrapper(f"ndnn.{name}", obj)
        hooks = {
            pylex.clean_code: ("pylex.clean_code", None),
            pylex.lex: ("pylex.lex", None),
            pylex.classify: ("pylex.classify", self._after_classify),
            pylex.tokenize: ("pylex.tokenize", self._after_tokenize),
            textclean.clean_corpus: ("textclean.clean_corpus", self._after_clean_corpus),
            vocab.build_vocab: ("vocab.build_vocab", None),
            vocab.assign_ids: ("vocab.assign_ids", self._after_assign_ids),
            himg.encode_corpus: ("himg.encode_corpus", self._after_encode_corpus),
            himg.images_to_batch: ("himg.images_to_batch", None),
            training.prepare_pairs: ("training.prepare_pairs", None),
            training.train: ("training.train", None),
            zeval.evaluate_pairs: ("zeval.evaluate_pairs", None),
            zeval.run_ladder: ("zeval.run_ladder", None),
            zeval.run_ablations: ("zeval.run_ablations", None),
            # a ladder cell has no public function; _run_cell is its boundary
            zeval._run_cell: ("zeval.cell", None),
        }
        for fn, (name, after) in hooks.items():
            targets[fn] = self._wrap(name, fn, after)

        out = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clcp" and not mod_name.startswith("clcp."):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:   # unhashable attribute
                    continue
                if wrapper is not None:
                    out.append((module, attr, wrapper))
        methods = (
            (Adam, "step", "ndnn.Adam.step", self._after_adam_step),
            (Tensor, "backward", "training.step.bwd", None),
            (encoders.CodeEncoder, "forward", "encoders.code_forward", None),
            (encoders.TextEncoder, "forward", "encoders.text_forward", None),
            (encoders.TextVocabulary, "encode_batch", "encoders.text_encode_batch", None),
        )
        for cls, attr, name, after in methods:
            out.append((cls, attr, self._wrap(name, cls.__dict__[attr], after)))
        model = training.CLCPModel
        out.append((model, "set_training", self._set_training_wrapper(model.set_training)))
        out.append((model, "pair_loss", self._pair_loss_wrapper(model.pair_loss)))
        return out

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """Record a span per call; ``after(args, kwargs, result)`` sees the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            return result if after is None else after(args, kwargs, result)
        return wrapper

    def _op_wrapper(self, name, fn):
        """Like ``_wrap``, and the returned tensor's backward gets a span too."""
        tracer = self
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if isinstance(out, Tensor) and out._backward is not None:
                backward = out._backward
                out._backward = lambda g: tracer.call(bwd_name, backward, (g,), {})
            return out
        return wrapper

    def _set_training_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, flag):
            tracer._train_mode = bool(flag)
            return fn(model, flag)
        return wrapper

    def _pair_loss_wrapper(self, fn):
        """A train-mode pair loss opens a training step; others are validation."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._train_mode:
                tracer._step_start = time.perf_counter_ns()
                return tracer.call("training.step.fwd", fn, args, kwargs)
            return tracer.call("training.eval_loss", fn, args, kwargs)
        return wrapper

    # -- count hooks ------------------------------------------------------------

    def _after_classify(self, args, kwargs, tokens):
        self.counts["pylex.tokens"] += len(tokens)
        return tokens

    def _after_tokenize(self, args, kwargs, tokens):
        self.counts["pylex.tokenize_calls"] += 1
        self._unique_sources.add(args[0] if args else kwargs["src"])
        return tokens

    def _after_clean_corpus(self, args, kwargs, result):
        _, aggregate = result
        self.counts["textclean.rule_hits"] += sum(aggregate["rules_fired"].values())
        return result

    def _after_assign_ids(self, args, kwargs, ids):
        scope = args[2] if len(args) > 2 else kwargs["scope"]
        if scope.recycled:
            self.counts["vocab.recycled_scopes"] += 1
        self._id_lengths.append(len(ids))
        return ids

    def _after_encode_corpus(self, args, kwargs, result):
        """Count truncations and recount them from the assigned ID lengths."""
        bound = self._encode_corpus_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        image_len = bound.arguments["image_len"]
        independent = sum(1 for n in self._id_lengths if n > image_len)
        self._id_lengths = []
        truncated = result[2]
        self.counts["himg.truncated"] += truncated
        if truncated != independent:
            self.truncation_mismatches.append((truncated, independent))
        return result

    def _after_adam_step(self, args, kwargs, result):
        if self._step_start is not None:
            self.step_ms.append((self.ends[self.last_closed] - self._step_start) / 1e6)
            self._step_start = None
        return result

    # -- reduction ---------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            calls, incl, self_ns = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, incl + int(dur[i]), self_ns + int(own[i]))
        return out

    def write(self, path, extra):
        """Dump every span and counter as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "format": "columns: name index, start_ns, end_ns, parent span (-1 = root)",
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "units": self.units,
            "counts": dict(self.counts),
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
