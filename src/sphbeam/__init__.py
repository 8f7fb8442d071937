"""Optimal modal beamforming and independent steering for spherical
loudspeaker arrays."""

__version__ = "0.1.0"
