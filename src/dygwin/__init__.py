"""Window-based encoder-decoder engine for continuous-time dynamic graphs."""

from .data import (CTDG, EdgeArray, SplitSpec, chronological_split,
                   inductive_split, load_csv, split_edge_indices, temporal_subgraph)
from .downstream import (DNCDecoderParams, FLPDecoderParams, TrainConfig, bce_loss,
                         evaluate_dnc, evaluate_flp, init_decoder, init_dnc_decoder,
                         init_flp_decoder, sample_negatives, train_downstream)
from .encoder import (EncoderParams, NodeEmbeddings, encode, init_encoder,
                      layer_forward)
from .errors import (ConfigError, ConsistencyError, ContractError, DataError,
                     HarnessError, NumericFailure, ShapeError)
from .features import (TemporalEdgeEncoding, Time2VecParams, common_neighbors_at,
                       init_edge_encoding, init_time2vec, time2vec)
from .gradcheck import finite_difference_check
from .metrics import (EvalRecord, auc, average_precision, mrr, recall_at_k)
from .optim import Adam
from .pretrain import (DistortionConfig, PredictorParams, PretrainConfig,
                       VicregWeights, distort, init_predictor, pretrain,
                       vicreg_covariance, vicreg_invariance, vicreg_variance)
from .tensor import Tape, Tensor, backward
from .windows import (Interval, LayeredNeighborhood, WindowBatch,
                      build_layered_neighborhood, generate_intervals,
                      make_window_batch, sample_neighbors)

__version__ = "0.1.0"
