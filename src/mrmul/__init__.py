"""Multi-worker MapReduce-style execution engine for multiplicative models:
block matrix multiplication, broadcast row products, and the three solvers
built on them (Gaussian NMF, fixed-bias SVM, PageRank)."""

from .engine import (
    Accumulator,
    BroadcastError,
    BroadcastStore,
    JobError,
    JobMetrics,
    JobSpec,
    RecordBatch,
    current_worker,
    run_job,
)
from .io import ParseError, read_edges, read_matrix, write_matrix
from .multiply import (
    PartitionSchema,
    ShardFunction,
    broadcast_multiply,
    partition_multiply,
)
from .nmf import NmfState, nmf_divergence, nmf_init, nmf_step, run_nmf
from .pagerank import PagerankProblem, pagerank, pagerank_build
from .sparse import (
    DenseMatrix,
    DenseVector,
    GeneratorParams,
    SparseMatrix,
    elementwise_update,
    generate_random,
    transpose,
)
from .svm import SvmProblem, SvmState, svm_build_kernel, svm_gradient, svm_predict, svm_train

__version__ = "0.1.0"
