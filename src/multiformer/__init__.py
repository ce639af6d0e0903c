"""Multiformer: a seq2seq transformer whose encoder self-attention mixes
full, local, and conv-compressed attention mechanisms per head."""

__version__ = "0.1.0"
