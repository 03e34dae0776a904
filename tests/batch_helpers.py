"""Receive many blocks of one PAM payload as `evaluate.run_blocks` does:
every block's front end, a batched LMS of at most `evaluate.BATCH_STREAMS`
blocks, and one back end per batch."""
from imddsim.adaptive import lms_equalize_batch
from imddsim.evaluate import BATCH_STREAMS
from imddsim.pam import ffe_reference, pam_back_end, pam_front_end


def receive_blocks(received, cfg, payload):
    """``pam_receive(signal, cfg, payload)`` of every waveform in
    `received`, in order; raises the first failure, as that loop would."""
    reference = ffe_reference(payload, cfg)
    fronts = [pam_front_end(signal, cfg, reference) for signal in received]
    blocks = []
    for start in range(0, len(fronts), BATCH_STREAMS):
        outputs = []
        for eq in lms_equalize_batch(fronts[start : start + BATCH_STREAMS], reference,
                                     cfg.n_ffe_taps):
            if isinstance(eq, Exception):
                raise eq
            outputs.append(eq.output)
        for rx_bits in pam_back_end(outputs, [cfg] * len(outputs), payload):
            if isinstance(rx_bits, Exception):
                raise rx_bits
            blocks.append(rx_bits)
    return blocks
