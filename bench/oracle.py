"""Correctness oracle and failure accounting.

Every timed operation is attempted through :class:`Ops`, which turns an
exception or a failed check into one ``failed`` count and lets the run
go on.  What is compared is architectural only — guest instruction
count, exit code, stdout, tool results, landing fingerprints — against
the in-run :class:`~repro.machine.Interpreter`; implementation counters
(compiles, warm starts, slice counts) are never pass/fail, because a
frozen benchmark must survive a JIT policy change.
"""

import hashlib
import json
import traceback


class Mismatch(Exception):
    """A result differed from the reference."""


class Ops:
    """Counts operations attempted and failed; keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, label: str, fn, *args):
        """Run ``fn``; an exception fails the operation, returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as error:
            self.fail(label, error)
            return None

    def verify(self, label: str, fn, *args) -> None:
        """Run a check belonging to an operation already attempted."""
        try:
            fn(*args)
        except Exception as error:
            self.fail(label, error)

    def fail(self, label: str, error: Exception) -> None:
        self.failed += 1
        detail = (str(error) if isinstance(error, Mismatch) else
                  "".join(traceback.format_exception(error)).strip())
        self.failures.append(f"{label}: {detail}")


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def require_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def arch_result(instructions: int, exit_code: int, stdout: str) -> dict:
    """The architectural outcome every execution mode must agree on."""
    return {"instructions": instructions, "exit_code": exit_code,
            "stdout_sha256": sha256_text(stdout)}


def tool_result(tool) -> dict:
    """A tool's results as comparable plain data: its report plus, for
    stream tools, a digest of the merged stream."""
    result = dict(tool.report())
    stream = getattr(tool, "stream", None)
    if stream is not None:
        result["stream_sha256"] = sha256_text(repr(list(stream)))
    return result


def check_report(report, arch: dict, tool, want_tool: dict) -> None:
    """A SuperPin or replay report against the reference."""
    require_equal("architectural result", arch_result(
        report.timeline.total_instructions, report.exit_code,
        report.stdout), arch)
    require(report.all_exact, "report.all_exact is false")
    require_equal("degraded slices", list(report.degraded_slices), [])
    require_equal("tool result", tool_result(tool), want_tool)


# -- pinned expectations (seed 0) ---------------------------------------------

def load_expected(path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def write_expected(path, reference: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def check_expected(expected: dict, reference: dict) -> None:
    """The run's reference results against the committed ones.

    Only keys present on both sides are compared, so a pinned file
    recorded at other sizes (its ``sizes`` differ) is not applicable.
    """
    if expected.get("sizes") != reference.get("sizes"):
        return
    for key in sorted(expected):
        if key in reference:
            require_equal(f"pinned {key}", reference[key], expected[key])
