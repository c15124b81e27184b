/* Fused LookHD predict: quantize -> chunk address -> score gather -> argmax.
 *
 * One pass per row of the C-contiguous (n_rows, n_features) float64 batch
 * x.  Levels are the branchless count sum_j (bounds[j] <= v), equal to
 * searchsorted(bounds, v, side="right") for ascending bounds; the tail of
 * the last chunk is padded at level 0.  Scores accumulate chunk-major from
 * 0.0 over the C-contiguous (n_chunks, n_addresses, k) table, the order of
 * kernels.gather_accumulate, so build without -ffast-math and with
 * -ffp-contract=off.  The argmax takes the first maximum (or the first
 * NaN), as numpy.argmax does.
 *
 * Returns -1, or the index of the first row holding a non-finite value
 * (rows before it are scored, the rest are not).
 */
#include <math.h>
#include <stdint.h>

int64_t fused_predict(const double *x, int64_t n_rows, int64_t n_features,
                      const double *bounds, int64_t n_bounds, int64_t q,
                      int64_t chunk_size, int64_t n_chunks,
                      const double *table, int64_t n_addresses, int64_t k,
                      double *scores, int64_t *predictions)
{
    for (int64_t row = 0; row < n_rows; row++) {
        const double *v = x + row * n_features;
        double *s = scores + row * k;
        for (int64_t f = 0; f < n_features; f++)
            if (!isfinite(v[f]))
                return row;
        for (int64_t j = 0; j < k; j++)
            s[j] = 0.0;
        for (int64_t c = 0; c < n_chunks; c++) {
            int64_t address = 0;
            for (int64_t t = 0; t < chunk_size; t++) {
                int64_t f = c * chunk_size + t, level = 0;
                if (f < n_features)
                    for (int64_t b = 0; b < n_bounds; b++)
                        level += bounds[b] <= v[f];
                address = address * q + level;
            }
            const double *entry = table + (c * n_addresses + address) * k;
            for (int64_t j = 0; j < k; j++)
                s[j] += entry[j];
        }
        int64_t best = 0;
        for (int64_t j = 0; j < k; j++) {
            if (isnan(s[j])) {
                best = j;
                break;
            }
            if (s[j] > s[best])
                best = j;
        }
        predictions[row] = best;
    }
    return -1;
}
