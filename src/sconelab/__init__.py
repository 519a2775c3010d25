"""Desk-scale open-world training lab: energy-margin OOD objectives with
temporal confidence regularization on synthetic drifting streams."""
