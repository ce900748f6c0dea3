"""Time tsokey's set-up in a fresh interpreter.

    python3 setup_probe.py MODULE ORDER_TEXT

Set-up is ``import MODULE`` (``tsokey`` or ``tsokey.cli``), ``tsodl.parse``
of the order and ``encoder.prepare``.  Prints the wall seconds it took and
the same time rescaled by the core's speed, sampled just before and just
after (calibration.py).  Only sys, time and the calibration module (which
imports signal and time) are loaded before the clock starts, so every module
tsokey pulls in counts towards its set-up.
"""

import sys
import time

import calibration


def main() -> None:
    module, order_text = sys.argv[1], sys.argv[2]
    with calibration.Probe() as probe:
        start = time.perf_counter()
        __import__(module)
        from tsokey import encoder, tsodl

        encoder.prepare(tsodl.parse(order_text))
        elapsed = time.perf_counter() - start
    print(repr(elapsed), repr(probe.scale(elapsed)))


if __name__ == "__main__":
    main()
