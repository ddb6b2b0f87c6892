#!/usr/bin/env bash
# Runs the whole suite twice with one seed and once with the next, prints each
# end-to-end metric's same-seed disagreement beside its bound, and fails on
# disagreement beyond a bound, on any exact metric differing, or on a second
# seed that changed nothing. Takes about twelve minutes.
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -selfcheck "$@"
