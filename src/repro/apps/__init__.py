"""Case-study applications of the paper's evaluation (Sec. IV).

* :mod:`repro.apps.edge` — deadline-driven edge detection (Fig. 6);
* :mod:`repro.apps.ofdm` — cognitive-radio OFDM demodulator (Fig. 7/8);
* :mod:`repro.apps.fmradio` — StreamIt-style FM radio (redundancy note).

Import each case study explicitly (``from repro.apps.ofdm import
...``): they need numpy, and edge detection and the video decoder
scipy (the ``apps`` extra), which the analysis core does not.
"""
