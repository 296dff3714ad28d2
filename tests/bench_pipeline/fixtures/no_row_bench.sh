#!/bin/sh
# A bench that succeeds but prints only human-readable text.
echo "table header"
echo "d695 6 none restart 256"
