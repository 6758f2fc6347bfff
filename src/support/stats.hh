/**
 * @file
 * Lightweight tabular reporting used by the benchmark harness and the
 * examples to print the rows/series of each paper table and figure as
 * aligned ASCII.
 */

#ifndef MSQ_SUPPORT_STATS_HH
#define MSQ_SUPPORT_STATS_HH

#include <ostream>
#include <string>
#include <vector>

namespace msq {

/**
 * A simple column-oriented results table. Cells are strings; numeric
 * convenience adders format with sensible precision. Rows are printed in
 * insertion order.
 */
class ResultTable
{
  public:
    /** @param title table caption printed above the header. */
    explicit ResultTable(std::string title) : title_(std::move(title)) {}

    /** Set the column headers; must be called before adding rows. */
    void setHeader(std::vector<std::string> names);

    /** Begin a new row. Subsequent addCell calls fill it left to right. */
    void beginRow();

    /** Append a string cell to the current row. */
    void addCell(const std::string &value);

    /** Append an integer cell. */
    void addCell(long long value);
    void addCell(unsigned long long value);

    /** Append a floating-point cell with @p precision decimals. */
    void addCell(double value, int precision = 3);

    /** Number of data rows so far. */
    size_t rows() const { return cells.size(); }

    /** Print with aligned columns. */
    void printAscii(std::ostream &os) const;

    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> cells;
};

} // namespace msq

#endif // MSQ_SUPPORT_STATS_HH
