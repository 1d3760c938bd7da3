"""In-memory span tracer that wraps umarfid's public functions from outside.

A span is (parent span, name, start ns, end ns, flag). Installing the
tracer replaces each target on its module or class, together with every
alias another umarfid module bound with ``from ... import``; uninstalling
puts the originals back. Forked pool workers inherit the wrappers but
record nothing, so only the process that owns the tracer has spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array


class Tracer:
    def __init__(self, targets: list[tuple[str, bool]]):
        """targets: ("module.function" or "module.Class.method", flag_result).

        With flag_result the span's flag is 1 when the call returned
        something other than None (an accepted TagState.respond).
        """
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.missing: list[str] = []
        self._stack = [-1]
        self._on = [True]
        self._patches: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._off)
        for target, flag_result in targets:
            self._resolve(target, flag_result)

    def _off(self) -> None:
        self._on[0] = False

    def _resolve(self, target: str, flag_result: bool) -> None:
        module_name, _, attr = target.partition(".")
        module = sys.modules.get(f"umarfid.{module_name}")
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name, None)
        if method:  # a method of a public class
            original = getattr(owner, "__dict__", {}).get(method)
            if original is None:
                self.missing.append(target)
                return
            wrapped = self._wrap(original, target, flag_result)
            self._patches.append((owner, method, original, wrapped))
            return
        if owner is None:
            self.missing.append(target)
            return
        wrapped = self._wrap(owner, target, flag_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "umarfid" and not mod_name.startswith("umarfid."):
                continue
            for alias, value in list(vars(mod).items()):
                if value is owner:
                    self._patches.append((mod, alias, owner, wrapped))

    def _wrap(self, fn, name: str, flag_result: bool):
        name_id = len(self.names)
        self.names.append(name)
        parent, names, start, end, flag = (
            self.parent, self.name, self.start, self.end, self.flag)
        stack, on, clock = self._stack, self._on, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            span = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            start.append(0)
            end.append(0)
            flag.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if flag_result and result is not None:
                flag[span] = 1
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> tuple[list[int], list[int]]:
        """(duration, self time) of every span, in ns.

        Self time is the duration minus the time its child spans cover;
        children of one span never overlap, since the tracer only records
        in one thread.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += dur[span]
        return dur, [d - c for d, c in zip(dur, covered)]

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\tflag\n")
            names = self.names
            fh.writelines(
                f"{i}\t{p}\t{names[n]}\t{s}\t{e}\t{f}\n"
                for i, (p, n, s, e, f) in enumerate(
                    zip(self.parent, self.name, self.start, self.end, self.flag))
            )
