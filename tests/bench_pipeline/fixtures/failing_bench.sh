#!/bin/sh
# A bench that prints a well-formed row and then fails.
echo 'BENCH_ROW claims {"id": "C1", "soc": "d695", "power_limit": "none", "paper_pct": 28, "measured_pct": 30, "at": "4proc"}'
echo "bench failed: deliberately" >&2
exit 1
