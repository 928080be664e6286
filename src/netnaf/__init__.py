"""netnaf: model-free networked control with continuous Q-learning.

A dense-network controller with a quadratic advantage head is trained to
stabilize an unknown plant across two randomly delayed channels, acting on
an extended state of recent outputs and issued inputs instead of the
unobservable plant state.
"""
