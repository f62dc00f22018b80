/* Figure 2, C-flavoured dialect. */
void fig2(const int n, const double x[n + 7], double y[n], const int c[n]) {
  int i;
  #pragma omp parallel for shared(x, y, c)
  for (i = 1; i <= n; i++) {
    y[c[i]] = x[c[i] + 7];
  }
}
