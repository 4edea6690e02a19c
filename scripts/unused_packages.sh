#!/usr/bin/env bash
# unused_packages.sh — fail when an internal/... package is imported by no
# non-test package outside itself: such a package is built, vetted and
# tested on every change yet nothing the repository ships can reach it.
# Imports made only by _test.go files do not count (go list's .Imports
# leaves them out).
set -euo pipefail
cd "$(dirname "$0")/.."

imported=$(go list -f '{{range .Imports}}{{println .}}{{end}}' ./... | sort -u)
unused=$(go list ./internal/... | grep -vxFf <(echo "$imported") || true)

if [ -n "$unused" ]; then
  echo "internal packages no non-test package imports:"
  echo "$unused" | sed 's/^/  /'
  exit 1
fi
echo "unused packages: none"
