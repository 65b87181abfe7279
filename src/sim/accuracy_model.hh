/**
 * @file
 * Calibrated probabilistic stand-in for trained backbone checkpoints.
 *
 * The paper's accuracy experiments (Tables I/III/IV, Figures 6/8/9)
 * measure top-1 accuracy as a function of inference resolution, crop
 * size (object scale), and image quality (SSIM after partial reads).
 * We reproduce those response surfaces with a per-image latent model:
 *
 *   correct(image) <=> margin > difficulty_i
 *   margin = b - pen_scale - pen_clip - pen_upsample - pen_quality
 *
 * where pen_scale is an asymmetric quadratic in log apparent-object-
 * size around the backbone's preferred scale s* (this produces the
 * train-test resolution discrepancy of Touvron et al. [31]: a peak
 * near 280 for 75% crops at train resolution 224, crossovers at small
 * crops), pen_clip charges objects truncated by aggressive crops,
 * pen_upsample charges blurry upsampling past the stored pixels, and
 * pen_quality charges SSIM below a resolution-dependent knee (higher
 * resolutions tolerate lower SSIM — the Section V observation).
 * difficulty_i is a logistic draw hashed from (image id, model seed),
 * so correctness is deterministic, reproducible, and consistent across
 * resolutions for a given trained-model instance.
 *
 * Parameters are calibrated against the paper's reported numbers.
 */

#ifndef TAMRES_SIM_ACCURACY_MODEL_HH
#define TAMRES_SIM_ACCURACY_MODEL_HH

#include <cstdint>
#include <string>

#include "sim/dataset.hh"
#include "util/logging.hh"

namespace tamres {

/** Backbone architectures the paper evaluates. */
enum class BackboneArch
{
    ResNet18,
    ResNet50,
};

/** "ResNet-18" / "ResNet-50". */
std::string archName(BackboneArch arch);

/** Calibrated response-surface parameters. */
struct AccuracyParams
{
    double base_logit = 1.3;   //!< b: headroom at the ideal operating point
    double diff_scale = 1.0;   //!< logistic difficulty scale s_d
    double s_star = 162.0;     //!< preferred apparent object size (pixels)
    double w_lo = 2.2;         //!< penalty weight, objects too small
    double w_hi = 3.0;         //!< penalty weight, objects too large
    double w_clip = 2.0;       //!< penalty weight, object clipped by crop
    double clip_free = 1.0;    //!< f_eff below this incurs no clip penalty
    double f_cap = 1.25;       //!< apparent-scale saturation from clipping
    double w_up = 0.6;         //!< upsampling-past-source penalty weight
    double w_q = 0.030;        //!< quality penalty weight
    double q_knee0 = 0.995;    //!< SSIM knee at 112
    double q_knee_slope = 0.012; //!< knee decrease per ln(r/112)
};

/** Calibrated parameters for (architecture, dataset profile). */
AccuracyParams accuracyParams(BackboneArch arch, const DatasetSpec &spec);

/**
 * A deterministic instance of a "trained backbone": architecture +
 * dataset profile + training seed (the paper's three seeds / sharded
 * backbones are instances with different seeds).
 */
class BackboneAccuracyModel
{
  public:
    BackboneAccuracyModel(BackboneArch arch, const DatasetSpec &spec,
                          uint64_t model_seed);

    BackboneArch arch() const { return arch_; }
    uint64_t seed() const { return model_seed_; }
    const AccuracyParams &params() const { return params_; }

    /**
     * Fine-tune the backbone for a known apparent-scale distribution
     * (Touvron et al. [31], the state of the art the paper's dynamic
     * pipeline is evaluated against): shifts the preferred apparent
     * object size to @p s_px pixels. The core/finetune helpers compute
     * s_px from a dataset sample at a known (crop, resolution).
     */
    void
    fineTuneToScale(double s_px)
    {
        tamres_assert(s_px > 0.0, "preferred scale must be positive");
        params_.s_star = s_px;
    }

    /**
     * Decision margin for one image under the given test conditions.
     *
     * @param rec        the image's latent record
     * @param crop_area  center-crop area fraction in (0, 1]
     * @param resolution inference resolution (square)
     * @param ssim_q     SSIM of the actually-read pixels vs. the
     *                   full-fidelity version at this resolution
     */
    double margin(const ImageRecord &rec, double crop_area,
                  int resolution, double ssim_q = 1.0) const;

    /** Population-level P(correct) given the margin (logistic CDF). */
    double pCorrect(const ImageRecord &rec, double crop_area,
                    int resolution, double ssim_q = 1.0) const;

    /** Deterministic per-image correctness draw. */
    bool correct(const ImageRecord &rec, double crop_area,
                 int resolution, double ssim_q = 1.0) const;

  private:
    double difficulty(const ImageRecord &rec) const;

    BackboneArch arch_;
    uint64_t model_seed_;
    AccuracyParams params_;
};

} // namespace tamres

#endif // TAMRES_SIM_ACCURACY_MODEL_HH
