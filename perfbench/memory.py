"""Peak-memory probe for the process running the timed work.

``reset_peak`` lowers the kernel's high-water mark (``VmHWM``) to the
current resident size by writing ``5`` to ``/proc/self/clear_refs``;
``peak_mb`` then reads the high-water mark reached since.  Where the reset
is unavailable the probe falls back to ``ru_maxrss``, the peak over the
whole life of the process, which includes input generation.
"""

from __future__ import annotations

import resource

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def reset_peak() -> bool:
    """Reset the high-water mark; ``False`` when the kernel refuses."""
    try:
        with open(_CLEAR_REFS, "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return _vm_hwm_kb() is not None


def _vm_hwm_kb() -> int | None:
    try:
        with open(_STATUS) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_mb(reset_worked: bool) -> float:
    """Peak resident memory in MiB since the reset (or process start)."""
    if reset_worked:
        kb = _vm_hwm_kb()
        if kb is not None:
            return kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
